//! One plain run or one traced pass per process.
//!
//! ```text
//! perfbench plain  --workload metro --seed 1 --sessions 30000 --seconds 50
//! perfbench traced --workload metro --seed 1 --sessions 30000 [--spans-out PATH]
//! ```
//!
//! Prints one JSON object on stdout: the measurements, the correctness
//! checks (`problems`, empty when all passed) and the simulated outcome
//! summary. `plain` repeats its passes for `--seconds` (at least three
//! passes); `run.py` beside this package repeats traced passes for the
//! measuring period and reports their medians. Exits 1 when a check
//! failed, 2 on a usage error.

use nod_perfbench::pass::{self, Census, PassSpec};
use nod_perfbench::stats::percentile;

/// A plain run makes at least this many passes, however long they take.
const MIN_PASSES: usize = 3;

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    v[v.len() / 2]
}

use nod_perfbench::workload::Workload;
use nod_simcore::json::{Json, Num};

/// The result object's fields, in output order.
#[derive(Default)]
struct JsonLine(Vec<(String, Json)>);

impl JsonLine {
    fn num(&mut self, key: &str, v: f64) -> &mut Self {
        self.0.push((key.to_string(), Json::Num(Num::F(v))));
        self
    }

    fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.0.push((key.to_string(), Json::Num(Num::U(v))));
        self
    }

    fn arr(&mut self, key: &str, v: &[f64]) -> &mut Self {
        let items = v.iter().map(|&x| Json::Num(Num::F(x))).collect();
        self.0.push((key.to_string(), Json::Arr(items)));
        self
    }

    fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.0.push((key.to_string(), Json::Str(v.to_string())));
        self
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench plain|traced --workload metro|contended|observed --seed N \
         --sessions N [--seconds S] [--spans-out PATH]"
    );
    std::process::exit(2);
}

fn value<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T {
    match it.next().and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => {
            eprintln!("error: {flag} needs a valid value");
            usage()
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mode = args.next().unwrap_or_else(|| usage());
    let mut workload = None;
    let mut seed = None;
    let mut sessions = None;
    let mut spans_out: Option<String> = None;
    let mut seconds = 0.0;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => {
                let name: String = value(&mut args, "--workload");
                workload = Some(Workload::parse(&name).unwrap_or_else(|| usage()));
            }
            "--seed" => seed = Some(value::<u64>(&mut args, "--seed")),
            "--sessions" => sessions = Some(value::<usize>(&mut args, "--sessions")),
            "--seconds" => seconds = value::<f64>(&mut args, "--seconds"),
            "--spans-out" => spans_out = Some(value(&mut args, "--spans-out")),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(sessions)) = (workload, seed, sessions) else {
        usage()
    };
    let spec = PassSpec::new(workload, seed, sessions.max(1));
    let mut j = JsonLine::default();
    j.str("workload", workload.name())
        .int("seed", seed)
        .int("sessions", spec.sessions as u64)
        .int("fleets", spec.fleet_list().len() as u64);
    let problems = match mode.as_str() {
        "plain" => plain(spec, seconds, &mut j),
        "traced" => traced(spec, spans_out.as_deref(), &mut j),
        _ => usage(),
    };
    let correct = problems.is_empty();
    j.0.push(("correct".into(), Json::Bool(correct)));
    let problems = problems.into_iter().map(Json::Str).collect();
    j.0.push(("problems".into(), Json::Arr(problems)));
    println!("{}", Json::Obj(j.0).to_string_compact());
    if !correct {
        std::process::exit(1);
    }
}

fn plain(spec: PassSpec, seconds: f64, j: &mut JsonLine) -> Vec<String> {
    let run = pass::plain_run(spec, MIN_PASSES, seconds);
    let p = &run.first;
    let o = &p.outcomes;
    let us = |q| percentile(&run.best_attempt_ns, q).unwrap_or(0) as f64 / 1_000.0;
    let measured_s: f64 = run.best_measured_s.iter().sum();
    j.num("setup_s", median(&run.setup_s))
        .int("passes", run.passes as u64)
        .num("measured_s", measured_s)
        .arr("measured_s.fleets", &run.best_measured_s)
        .num("sessions_per_s", spec.sessions as f64 / measured_s)
        .num("peak_rss_mb", run.peak_rss_mb)
        .num("negotiation_p50_us", us(0.5))
        .num("negotiation_p99_us", us(0.99))
        .int("negotiation_samples", run.best_attempt_ns.len() as u64)
        .int("sessions_offered", spec.sessions as u64)
        .int("sessions_failed", o.failed() as u64)
        .int("sim.admitted", o.admitted as u64)
        .int("sim.degraded", o.degraded as u64)
        .int("sim.starved", o.starved as u64)
        .int("sim.rejected", o.rejected as u64)
        .int("sim.errored", o.errored as u64)
        .int("sim.retries", o.retries)
        .str("sim.digest", &format!("{:016x}", p.digest));
    census(&p.census, j);
    run.problems
}

fn census(c: &Census, j: &mut JsonLine) {
    j.int("census.attempts", c.attempts)
        .num("census.retry_share", c.retry_share)
        .num(
            "census.refused_per_attempt.server",
            c.refused_per_attempt[0],
        )
        .num(
            "census.refused_per_attempt.path_qos",
            c.refused_per_attempt[1],
        )
        .num(
            "census.refused_per_attempt.network",
            c.refused_per_attempt[2],
        )
        .num("census.refused_per_attempt.other", c.refused_per_attempt[3])
        .int("census.distinct_pairs", c.distinct_pairs as u64)
        .int("census.peak_live_sessions", c.peak_live_sessions as u64)
        .int("census.log_len", c.log_len as u64);
}

fn traced(spec: PassSpec, spans_out: Option<&str>, j: &mut JsonLine) -> Vec<String> {
    let t = pass::traced(spec);
    let rp = &t.replay;
    let busy = t.busy_s();
    let repeat_share = rp.repeat_prepares as f64 / t.prepare.calls.max(1) as f64;
    let useful = rp.reserved as f64 / rp.reservation_attempts.max(1) as f64;
    let e = &t.export;
    j.num("setup.world_s", t.setup.world_s)
        .num("setup.schedule_s", t.setup.schedule_s)
        .num("broker.drive_s", t.drive_s)
        .num("broker.bare_drive_s", t.bare_drive_s)
        .int("qosneg.prepare.calls", t.prepare.calls)
        .num("qosneg.prepare.busy_s", t.prepare.busy_s)
        .num("qosneg.prepare.p50_us", t.prepare.p50_us)
        .num("qosneg.prepare.p99_us", t.prepare.p99_us)
        .int("qosneg.prepare.offers_enumerated", rp.offers_enumerated)
        .num("qosneg.prepare.repeat_share", repeat_share)
        .int("qosneg.commit.calls", t.commit.calls)
        .num("qosneg.commit.busy_s", t.commit.busy_s)
        .num("qosneg.commit.p50_us", t.commit.p50_us)
        .num("qosneg.commit.p99_us", t.commit.p99_us)
        .num("qosneg.attempt.p99_us", t.attempt.p99_us)
        .int(
            "qosneg.commit.reservation_attempts",
            rp.reservation_attempts,
        )
        .num("qosneg.commit.useful_ratio", useful)
        .int("qosneg.commit.refused.server", rp.refused.server)
        .int("qosneg.commit.refused.path_qos", rp.refused.path_qos)
        .int("qosneg.commit.refused.network", rp.refused.network)
        .int("qosneg.commit.refused.other", rp.refused.other)
        .int("qosneg.release.calls", rp.release_calls)
        .num("qosneg.release.busy_s", rp.release_ns as f64 / 1e9)
        .int("broker.fault.calls", rp.fault_calls)
        .num("broker.fault.busy_s", rp.fault_ns as f64 / 1e9)
        .num("broker.residual_s", t.drive_s - busy)
        .int(
            "broker.peak_live_sessions",
            t.census.peak_live_sessions as u64,
        )
        .num("replay.over_drive", busy / t.drive_s)
        .num("obs.hooks_s", t.drive_s - t.bare_drive_s)
        .num("obs.export.trace_s", e.trace_s)
        .num("obs.export.prom_s", e.prom_s)
        .num("obs.export.windows_s", e.windows_s)
        .num("obs.export.explain_s", e.explain_s)
        .int("obs.trace_bytes", e.trace_bytes)
        .int("obs.explain_bytes", e.explain_bytes)
        .int("obs.journal_bytes", e.journal_bytes)
        .str("sim.digest", &format!("{:016x}", t.digest));
    census(&t.census, j);
    let mut problems = t.problems;
    if let Some(path) = spans_out {
        if let Err(err) = std::fs::write(path, pass::spans_jsonl(&rp.spans)) {
            problems.push(format!("cannot write spans to {path}: {err}"));
        }
    }
    problems
}
