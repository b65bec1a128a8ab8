//! The benchmark's own checks, at tiny sizes.

use nod_broker::OutcomeKind;
use nod_perfbench::pass::{self, PassSpec};
use nod_perfbench::replay::replay;
use nod_perfbench::workload::{Workload, World};

fn tiny(workload: Workload) -> PassSpec {
    PassSpec {
        workload,
        seed: 7,
        sessions: 200,
        fleets: 2,
    }
}

#[test]
fn every_workload_passes_its_checks_at_a_tiny_size() {
    for workload in Workload::ALL {
        let plain = pass::plain(tiny(workload));
        assert!(
            plain.problems.is_empty(),
            "{workload:?} plain: {:?}",
            plain.problems
        );
        let o = plain.outcomes;
        assert_eq!(o.admitted + o.starved + o.rejected + o.errored, 200);
        assert_eq!(plain.measured_s.len(), 2);
        assert!(!plain.attempt_ns.is_empty());
        assert!(plain.census.attempts >= 200);

        let traced = pass::traced(tiny(workload));
        assert!(
            traced.problems.is_empty(),
            "{workload:?} traced: {:?}",
            traced.problems
        );
        assert_eq!(
            traced.digest, plain.digest,
            "{workload:?}: same seed, same logs"
        );
        assert_eq!(traced.prepare.calls, plain.census.attempts);
        // Every attempt is a root span with a prepare child, across the
        // fleets' replays laid end to end.
        let spans = &traced.replay.spans;
        let attempts = spans.iter().filter(|s| s.name == "attempt").count() as u64;
        assert_eq!(attempts, traced.prepare.calls);
        assert!(spans
            .iter()
            .enumerate()
            .all(|(i, s)| s.id as usize == i + 1));
        assert!(spans
            .iter()
            .filter(|s| s.name == "prepare" || s.name == "commit")
            .all(|s| s.parent != 0 && spans[s.parent as usize - 1].name == "attempt"));
        assert!(spans.iter().filter_map(|s| s.session).any(|i| i >= 100));
    }
}

#[test]
fn fleets_split_the_sessions_and_draw_their_own_traffic() {
    let spec = PassSpec {
        sessions: 203,
        fleets: 4,
        ..tiny(Workload::Contended)
    };
    let fleets = spec.fleet_list();
    let sizes: Vec<usize> = fleets.iter().map(|f| f.sessions).collect();
    assert_eq!(sizes, [51, 51, 51, 50]);
    assert!(fleets.iter().all(|f| f.scale == 203));
    let mut seeds: Vec<u64> = fleets.iter().map(|f| f.seed).collect();
    seeds.dedup();
    assert_eq!(seeds.len(), 4);
}

#[test]
fn a_plain_run_keeps_the_fastest_time_of_every_fleet_and_attempt() {
    let spec = tiny(Workload::Contended);
    let run = pass::plain_run(spec, 3, 0.0);
    assert!(run.problems.is_empty(), "{:?}", run.problems);
    assert_eq!(run.passes, 3);
    let first = &run.first;
    assert_eq!(run.best_attempt_ns.len(), first.attempt_ns.len());
    assert!(run.best_attempt_ns.windows(2).all(|w| w[0] <= w[1]));
    assert!(run.best_attempt_ns.iter().sum::<u64>() <= first.attempt_ns.iter().sum::<u64>());
    assert_eq!(run.best_measured_s.len(), 2);
    assert!(run
        .best_measured_s
        .iter()
        .zip(&first.measured_s)
        .all(|(best, first)| best <= first));
    // Three set-up rounds per drive, two fleets, three passes.
    assert_eq!(run.setup_s.len(), 18);
}

#[test]
fn observed_runs_every_consumer_and_fault_edge() {
    let traced = pass::traced(tiny(Workload::Observed));
    assert!(traced.export.trace_bytes > 0);
    assert!(traced.export.explain_bytes > 0);
    assert!(traced.export.journal_bytes > 0);
    assert!(traced.replay.fault_calls > 0);
}

#[test]
fn a_tampered_outcome_log_is_a_replay_mismatch() {
    let fleet = tiny(Workload::Contended).fleet_list()[0];
    let drive = pass::drive(fleet, true);
    let mut events = drive.report.events.clone();
    let ev = events
        .iter_mut()
        .find(|e| matches!(e.kind, OutcomeKind::Admitted { .. }))
        .expect("some session is admitted");
    let OutcomeKind::Admitted { attempt, .. } = ev.kind else {
        unreachable!()
    };
    ev.kind = OutcomeKind::RetryScheduled {
        at_ms: ev.at_ms + 1,
        attempt,
    };
    let specs = drive.traffic.specs();
    let run = |events| {
        let world = World::build(fleet);
        replay(&world, &specs, &drive.traffic.broker, events, None, false)
    };
    assert_eq!(run(&drive.report.events).mismatches, 0);
    let tampered = run(&events);
    assert!(tampered.mismatches >= 1);
    assert!(tampered.mismatch_notes[0].contains("RetryScheduled"));
}
