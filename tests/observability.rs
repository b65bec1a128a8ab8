//! Cross-crate observability integration: a QoS manager wired to a
//! recorder emits the negotiation pipeline's stage spans in order, outcome
//! counters account for every request, the snapshot that `run_scenario
//! --metrics-out` writes round-trips through JSON, and the streamed trace
//! and explain exports write exactly the bytes of the `Json` tree path.

use std::sync::Arc;

use news_on_demand::client::ClientMachine;
use news_on_demand::cmfs::{ServerConfig, ServerFarm};
use news_on_demand::mmdb::{CorpusBuilder, CorpusParams};
use news_on_demand::mmdoc::{ClientId, DocumentId, ServerId};
use news_on_demand::netsim::{Network, Topology};
use news_on_demand::obs::{
    MemorySink, ObsEvent, Recorder, RetentionPolicy, Snapshot, TraceEvent, Tracer,
};
use news_on_demand::qosneg::explain::{ExplainArtifact, ExplainMeta};
use news_on_demand::qosneg::manager::{ManagerConfig, QosManager};
use news_on_demand::qosneg::profile::tv_news_profile;
use news_on_demand::qosneg::{CostModel, NegotiationRequest, NegotiationStatus};
use news_on_demand::simcore::json::{Json, ToJson};
use news_on_demand::simcore::StreamRng;
use news_on_demand::workload::{
    run_blocking_with, run_contended_with, BlockingConfig, ContendedConfig,
};

fn manager(seed: u64, recorder: Recorder) -> QosManager {
    let mut rng = StreamRng::new(seed);
    let catalog = CorpusBuilder::new(CorpusParams {
        documents: 10,
        servers: (0..3).map(ServerId).collect(),
        video_variants: (3, 6),
        replicas: (1, 2),
        duration_secs: (60, 120),
        ..CorpusParams::default()
    })
    .build(&mut rng);
    let m = QosManager::new(
        catalog,
        ServerFarm::uniform(3, ServerConfig::era_default()),
        Network::new(Topology::dumbbell(6, 3, 25_000_000, 155_000_000)),
        CostModel::era_default(),
        ManagerConfig {
            recorder: Some(recorder.clone()),
            ..ManagerConfig::default()
        },
    );
    m.farm().set_recorder(&recorder);
    m.network().set_recorder(recorder);
    m
}

#[test]
fn manager_negotiation_emits_stage_spans_in_order() {
    let sink = Arc::new(MemorySink::new());
    let recorder = Recorder::with_sink(sink.clone());
    let m = manager(41, recorder);
    let client = ClientMachine::era_workstation(ClientId(0));
    let out = m
        .submit(&NegotiationRequest::new(
            &client,
            DocumentId(1),
            &tv_news_profile(),
        ))
        .unwrap();
    if let Some(r) = &out.reservation {
        m.release(r);
    }

    let events: Vec<ObsEvent> = sink.events();
    let starts: Vec<&ObsEvent> = events.iter().filter(|e| e.kind == "span_start").collect();
    assert_eq!(starts[0].name, "negotiate", "root span opens first");
    let root_id = starts[0].span.unwrap();
    assert_eq!(starts[0].parent, Some(0), "negotiate is a root span");

    // Every stage span is a child of the negotiate span, in pipeline order:
    // enumerate → prune → classify → commit… (one commit per attempt).
    let children: Vec<&str> = starts
        .iter()
        .skip(1)
        .map(|e| {
            assert_eq!(e.parent, Some(root_id), "stage {} parented to root", e.name);
            e.name.as_str()
        })
        .collect();
    assert!(
        children.len() >= 4,
        "expected 4+ stage spans, got {children:?}"
    );
    assert_eq!(&children[..3], &["enumerate", "prune", "classify"]);
    assert!(
        children[3..].iter().all(|&n| n == "commit"),
        "after classify only commit attempts remain: {children:?}"
    );

    // The root span ends last, after every child has ended.
    let ends: Vec<&ObsEvent> = events.iter().filter(|e| e.kind == "span_end").collect();
    assert_eq!(ends.last().unwrap().name, "negotiate");
    assert_eq!(
        starts.len(),
        ends.len(),
        "every opened span ends exactly once"
    );
}

#[test]
fn outcome_counters_sum_to_requests() {
    let recorder = Recorder::new();
    let m = manager(42, recorder.clone());
    let profile = tv_news_profile();
    let requests = 24u64;
    for i in 0..requests {
        let client = ClientMachine::era_workstation(ClientId(i % 6));
        let doc = DocumentId(i % 10 + 1);
        // Resources are held, so later requests saturate the system and
        // exercise the failure statuses too.
        let _ = m
            .submit(&NegotiationRequest::new(&client, doc, &profile))
            .unwrap();
    }

    let snap = recorder.snapshot();
    assert_eq!(snap.counter_sum("negotiation.outcome"), requests);
    let by_status: u64 = [
        "SUCCEEDED",
        "FAILEDWITHOFFER",
        "FAILEDTRYLATER",
        "FAILEDWITHOUTOFFER",
        "FAILEDWITHLOCALOFFER",
    ]
    .iter()
    .map(|s| snap.counter(&format!("negotiation.outcome{{status={s}}}")))
    .sum();
    assert_eq!(by_status, requests, "every outcome carries a known status");
    assert!(
        snap.counter(&format!(
            "negotiation.outcome{{status={}}}",
            NegotiationStatus::Succeeded
        )) > 0,
        "an idle system must admit the first sessions"
    );

    // The subsystems under the manager reported through the same recorder.
    assert!(
        snap.counter_sum("cmfs.admission") > 0,
        "server admissions counted"
    );
    assert!(
        snap.counter("net.reservation.attempts") > 0,
        "network reservations counted"
    );
    assert_eq!(
        snap.counter("negotiation.reservation.attempts"),
        snap.counter_sum("negotiation.commit.refused")
            + snap.counter("negotiation.outcome{status=SUCCEEDED}")
            + snap.counter("negotiation.outcome{status=FAILEDWITHOFFER}"),
        "each commit attempt either succeeds or is refused with a reason"
    );
}

#[test]
fn workload_snapshot_has_stage_histograms_and_round_trips() {
    let recorder = Recorder::new();
    let result = run_blocking_with(
        &BlockingConfig {
            seed: 13,
            documents: 8,
            servers: 3,
            clients: 4,
            arrivals_per_minute: 4.0,
            horizon_minutes: 20.0,
            ..BlockingConfig::default()
        },
        Some(&recorder),
    );
    assert!(result.offered > 0);

    let snap = recorder.snapshot();
    assert_eq!(
        snap.counter_sum("negotiation.outcome"),
        result.offered,
        "one outcome per offered session"
    );
    for stage in ["negotiate", "enumerate", "prune", "classify", "commit"] {
        let hist = snap
            .histograms
            .get(&format!("span.{stage}.ms"))
            .unwrap_or_else(|| panic!("missing span.{stage}.ms histogram"));
        assert!(hist.count > 0, "span.{stage}.ms has samples");
    }

    // The exact JSON the `--metrics-out` flag writes must round-trip.
    let json = snap.to_json_pretty();
    let back = Snapshot::from_json_str(&json).expect("snapshot JSON parses");
    assert_eq!(back.counters, snap.counters);
    assert_eq!(
        back.histograms.len(),
        snap.histograms.len(),
        "all histograms survive the round trip"
    );
}

#[test]
fn broker_counters_flow_through_the_recorder() {
    let recorder = Recorder::new();
    let (result, report) = run_contended_with(
        &ContendedConfig {
            seed: 21,
            sessions: 24,
            servers: 1,
            arrivals_per_minute: 240.0,
            hold_ms: 8_000,
            fault_windows: 3,
            ..ContendedConfig::default()
        },
        Some(&recorder),
    );
    assert_eq!(result.leaked_streams, 0);
    assert!(result.retries > 0, "the undersized farm must force retries");

    let snap = recorder.snapshot();
    assert_eq!(snap.counter("broker.retries"), report.retries);
    assert_eq!(snap.counter("broker.backoff_ms"), report.backoff_ms_total);
    assert_eq!(
        snap.counter("broker.faults.injected"),
        report.faults_injected
    );
    assert_eq!(
        snap.counter("broker.sessions.starved"),
        report.starved as u64
    );
    assert_eq!(snap.counter("broker.leaked_reservations"), 0);
    assert_eq!(
        snap.gauges.get("broker.admission_ratio").copied(),
        Some(report.admission_ratio)
    );
    // The negotiations underneath the broker report through the same
    // recorder: one outcome per attempt (arrivals + retries).
    assert_eq!(
        snap.counter_sum("negotiation.outcome"),
        result.offered as u64 + report.retries
    );
}

/// A small faulted fleet with a choice period, tail-sampled tracing and
/// explain retention: every line shape both JSONL exports write.
fn exported_fleet() -> (ContendedConfig, RetentionPolicy) {
    let policy = RetentionPolicy {
        top_k: 4,
        sample_every: 8,
        seed: 3,
        max_events_per_trace: 4_096,
    };
    let config = ContendedConfig {
        seed: 11,
        sessions: 48,
        servers: 1,
        arrivals_per_minute: 240.0,
        hold_ms: 8_000,
        choice_period_ms: 300,
        fault_windows: 3,
        explain: Some(policy),
        ..ContendedConfig::default()
    };
    (config, policy)
}

/// Drive the exported fleet; returns its recorder, tracer and explain
/// artifact.
fn drive_exported_fleet() -> (Recorder, Tracer, ExplainArtifact) {
    let (config, policy) = exported_fleet();
    let recorder = Recorder::new();
    let tracer = Tracer::with_sampling(policy);
    recorder.set_tracer(tracer.clone());
    let (_, mut report) = run_contended_with(&config, Some(&recorder));
    let meta = ExplainMeta {
        source: "observability-test".to_string(),
        seed: config.seed,
        sessions: config.sessions as u64,
        top_k: policy.top_k as u64,
        sample_every: policy.sample_every,
        sample_seed: policy.seed,
    };
    let data = report.explains.take().expect("explain was requested");
    (recorder, tracer, ExplainArtifact::new(meta, data))
}

#[test]
fn streamed_exports_match_the_tree_path_and_round_trip() {
    // The tree path: drain one run's events and print each `Json` value.
    let (_, oracle_tracer, oracle_art) = drive_exported_fleet();
    let events = oracle_tracer.drain();
    assert!(
        events.len() > 100,
        "fleet too small: {} events",
        events.len()
    );
    let (_, tracer, art) = drive_exported_fleet();
    assert_eq!(art, oracle_art, "same-seed runs explain identically");

    let trace = tracer.to_jsonl();
    let lines: Vec<&str> = trace.lines().collect();
    assert_eq!(lines.len(), events.len());
    for (line, ev) in lines.iter().zip(&events) {
        assert_eq!(*line, ev.to_json().to_string_compact());
        assert_eq!(&TraceEvent::from_json_line(line).unwrap(), ev);
    }
    assert!(tracer.drain().is_empty(), "to_jsonl drains like drain()");

    let text = art.to_jsonl();
    let mut tree = vec![Json::tagged("meta", art.meta.to_json())];
    tree.extend(
        art.ledger
            .iter()
            .map(|r| Json::tagged("ledger", r.to_json())),
    );
    tree.extend(
        art.sessions
            .iter()
            .map(|s| Json::tagged("session", s.to_json())),
    );
    tree.push(Json::tagged("stats", art.stats.to_json()));
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), tree.len());
    assert!(art.ledger.len() > 1 && art.sessions.len() > 1, "{lines:?}");
    for shape in [
        r#"{"Disk":{"used_us":"#,
        r#""settlement":{"#,
        r#""status":"SUCCEEDED""#,
    ] {
        assert!(text.contains(shape), "no `{shape}` line to compare");
    }
    for (line, v) in lines.iter().zip(&tree) {
        assert_eq!(*line, v.to_string_compact());
    }
    assert_eq!(ExplainArtifact::from_jsonl(&text).unwrap(), art);
}

#[test]
fn flight_dump_after_export_resolves_against_drained_offsets() {
    let (recorder, tracer, _) = drive_exported_fleet();
    let exported: Vec<TraceEvent> = tracer
        .to_jsonl()
        .lines()
        .map(|l| TraceEvent::from_json_line(l).unwrap())
        .collect();
    let trace = exported.last().expect("retained traces").trace;
    let drained = exported.iter().filter(|e| e.trace == trace).count() as u64;

    // New events on an exported trace continue its seqs past the export;
    // the flight recorder must resolve them at their offset from there.
    tracer.resume(trace);
    let span = recorder.span("post_export");
    recorder.trace_point("after_export", &[]);
    span.end();
    tracer.suspend();
    tracer.trigger_flight_dump("post_export_check");
    let dump = tracer.take_flight_dump().expect("dump captured");
    let fresh = tracer.drain();
    assert_eq!(fresh.len(), 3, "{fresh:?}");
    assert_eq!(fresh[0].seq, drained);
    assert_eq!(dump.events, fresh, "exported events are gone from the ring");
}
