//! `netlist_jobs`: a closed-loop client keeping `IN_FLIGHT` jobs in flight
//! against a `SimulationService` with `WORKERS` workers. Jobs are seeded Villard
//! doubler netlists, each with an `.op` and a 100-step `.tran` card; one
//! submission in four revisits an earlier design point of its round, so
//! cache hits sit beside misses.
//!
//! An op is one job round trip (submit → wait). The timed phase runs rounds
//! of `ROUND_JOBS` submissions, each against a fresh service so the job
//! table and cache stay bounded; round `r`'s inputs come from
//! `Rng::new(seed, r)`.

use crate::layers::Layers;
use crate::measure::{
    end_to_end, keep_going, overhead_ratio, Report, Rng, SetupSamples, TimedPhase, Tracer,
};
use crate::refkernel;
use harvester_mna::analysis::{run_plan, AnalysisEngine, AnalysisResults};
use harvester_mna::netlist;
use harvester_service::{JobReport, JobSpec, JobState, ServiceConfig, SimulationService};
use std::collections::VecDeque;
use std::time::Instant;

/// Submissions per round. Every round starts a fresh service (new worker
/// threads, whose allocator arenas differ run to run), so rounds are kept
/// small: with 256-job rounds the peak resident set jumped between two
/// levels 30 % apart.
const ROUND_JOBS: usize = 64;
/// One worker fed by a client that keeps `IN_FLIGHT` jobs in flight: the
/// worker always finds the next job queued, and client and worker each
/// have a CPU of a two-CPU host. With two workers (three busy threads on
/// two CPUs) the job rate swung by up to 2× between identical runs.
const WORKERS: usize = 1;
const IN_FLIGHT: usize = 4;
/// Set-up is cheap (about a millisecond), so it is repeated more often.
const SETUP_REPEATS: usize = 25;
/// Every `REVISIT_EVERY`-th submission revisits an earlier design point.
const REVISIT_EVERY: usize = 4;
/// Rounds re-run with spans in the traced run.
const TRACED_ROUNDS: usize = 8;
/// Largest relative difference allowed between a job's outcome and a
/// direct run of the same text.
const AGREEMENT_TOLERANCE: f64 = 1e-9;
/// Nodes compared between a job's outcome and the direct run.
const NODES: [&str; 4] = ["in", "a", "pump", "out"];

/// One round's inputs: the distinct netlists and which one each
/// submission sends.
struct Round {
    designs: Vec<String>,
    schedule: Vec<usize>,
    revisit: Vec<bool>,
}

fn design(rng: &mut Rng) -> String {
    let amplitude = rng.uniform(2.0, 4.0);
    let frequency = rng.uniform(500.0, 2000.0);
    let dt = 1.0 / (50.0 * frequency);
    format!(
        "* Villard doubler design point\n\
         Vin in 0 SIN(0 {amplitude:?} {frequency:?})\n\
         Rs in a {:?}\n\
         Cp a pump {:?}\n\
         Dc 0 pump\n\
         Ds pump out\n\
         Cs out 0 {:?}\n\
         Rl out 0 {:?}\n\
         .op\n\
         .tran {dt:?} {:?}\n",
        rng.uniform(10.0, 100.0),
        rng.uniform(1e-7, 1e-6),
        rng.uniform(1e-7, 1e-6),
        rng.uniform(5e3, 50e3),
        100.0 * dt,
    )
}

fn round_inputs(seed: u64, round: usize) -> Round {
    let mut rng = Rng::new(seed, round as u64);
    let mut designs = Vec::new();
    let mut schedule = Vec::with_capacity(ROUND_JOBS);
    let mut revisit = Vec::with_capacity(ROUND_JOBS);
    for i in 0..ROUND_JOBS {
        // Revisit a submission at least IN_FLIGHT back: it has been waited
        // for, so the revisit must be answered from the cache.
        if i % REVISIT_EVERY == REVISIT_EVERY - 1 && i >= IN_FLIGHT {
            schedule.push(schedule[rng.below(i + 1 - IN_FLIGHT)]);
            revisit.push(true);
        } else {
            designs.push(design(&mut rng));
            schedule.push(designs.len() - 1);
            revisit.push(false);
        }
    }
    Round {
        designs,
        schedule,
        revisit,
    }
}

fn service() -> SimulationService {
    SimulationService::new(ServiceConfig {
        workers: WORKERS,
        ..ServiceConfig::default()
    })
}

/// What one timed round produced.
struct RoundRun {
    wall_s: f64,
    ref_s: f64,
    latency_s: Vec<f64>,
    reports: Vec<JobReport>,
    stats: harvester_service::ServiceStats,
}

/// Runs one round with the closed-loop client; only the submissions and
/// waits are timed, not the service start-up and shutdown.
fn run_round(round: &Round, tracer: &Tracer) -> Result<RoundRun, String> {
    let service = service();
    let ref_s = refkernel::timed()?;
    let mut latency_s = vec![0.0; ROUND_JOBS];
    let mut reports: Vec<Option<JobReport>> = vec![None; ROUND_JOBS];
    let mut in_flight = VecDeque::with_capacity(IN_FLIGHT);
    let mut finish = |(i, id, sent): (usize, _, Instant)| {
        let report = service.wait(id);
        let done = Instant::now();
        latency_s[i] = (done - sent).as_secs_f64();
        tracer.record("service.job", i as u64, sent, done);
        reports[i] = report;
    };
    let start = Instant::now();
    for (i, &d) in round.schedule.iter().enumerate() {
        if in_flight.len() == IN_FLIGHT {
            finish(in_flight.pop_front().expect("jobs in flight"));
        }
        let spec = JobSpec::new(round.designs[d].clone());
        let sent = Instant::now();
        let id = service.submit(spec);
        tracer.record("service.submit", i as u64, sent, Instant::now());
        in_flight.push_back((i, id, sent));
    }
    while let Some(job) = in_flight.pop_front() {
        finish(job);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let stats = service.stats();
    Ok(RoundRun {
        wall_s,
        ref_s,
        latency_s,
        reports: reports
            .into_iter()
            .map(|r| r.ok_or("a submitted job was unknown to the service"))
            .collect::<Result<_, _>>()?,
        stats,
    })
}

fn agree(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= AGREEMENT_TOLERANCE * x.abs().max(y.abs()).max(1e-12))
}

/// Compares a job outcome with a direct run of the same text.
fn same_outcome(job: &AnalysisResults, direct: &AnalysisResults) -> Result<(), String> {
    let (Some(op), Some(direct_op)) = (job.op(), direct.op()) else {
        return Err("missing .op result".into());
    };
    let (Some(tran), Some(direct_tran)) = (job.transient(), direct.transient()) else {
        return Err("missing .tran result".into());
    };
    if !agree(op.solution(), direct_op.solution()) {
        return Err("operating points differ".into());
    }
    if !agree(tran.times(), direct_tran.times()) {
        return Err("transient time grids differ".into());
    }
    for node in NODES {
        let (Ok(a), Ok(b)) = (
            tran.voltage_by_name(node),
            direct_tran.voltage_by_name(node),
        ) else {
            return Err(format!("node {node} missing"));
        };
        if !agree(&a, &b) {
            return Err(format!("transient traces of node {node} differ"));
        }
    }
    Ok(())
}

/// Output checks of one round: every job `Done`, revisits (and only
/// revisits) from the cache, and every distinct netlist's outcome equal
/// to a direct `build_with_plan` + `run_plan` of its text. Returns whether
/// each job passed, and the problems found.
fn check_round(round: &Round, run: &RoundRun) -> (Vec<bool>, Vec<String>) {
    let mut ok = vec![true; ROUND_JOBS];
    let mut problems = Vec::new();
    let mut fail = |i: usize, what: String, ok: &mut Vec<bool>| {
        ok[i] = false;
        problems.push(format!("job {i}: {what}"));
    };
    for (i, report) in run.reports.iter().enumerate() {
        if report.state != JobState::Done || report.outcome.is_none() {
            fail(
                i,
                format!("ended {} ({:?})", report.state, report.error),
                &mut ok,
            );
        } else if report.from_cache != round.revisit[i] {
            fail(i, format!("from_cache = {}", report.from_cache), &mut ok);
        }
    }
    // Check each distinct netlist once, against its first submission;
    // revisits share that outcome (they are `Arc` clones of it).
    for d in 0..round.designs.len() {
        let Some(i) = round.schedule.iter().position(|&s| s == d) else {
            continue;
        };
        let Some(outcome) = run.reports[i].outcome.as_ref() else {
            continue;
        };
        let direct = netlist::build_with_plan(&round.designs[d])
            .map_err(|e| e.to_string())
            .and_then(|(c, p)| run_plan(&c, &p).map_err(|e| e.to_string()))
            .and_then(|direct| same_outcome(outcome.results(), &direct));
        if let Err(e) = direct {
            for (j, &s) in round.schedule.iter().enumerate() {
                if s == d {
                    fail(j, format!("disagrees with a direct run: {e}"), &mut ok);
                }
            }
        }
    }
    (ok, problems)
}

/// One set-up: round 0's inputs, a fresh service and its first, cold job.
/// Returns its duration (the service's shutdown excluded) and whether the
/// job failed.
fn cold_job(seed: u64) -> (f64, Option<String>) {
    let start = Instant::now();
    let round = round_inputs(seed, 0);
    let service = service();
    let id = service.submit(JobSpec::new(round.designs[0].clone()));
    let state = service.wait(id).map(|r| r.state);
    let seconds = start.elapsed().as_secs_f64();
    let problem =
        (state != Some(JobState::Done)).then(|| format!("set-up job ended {state:?}, not done"));
    (seconds, problem)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let untraced = Tracer::new(false);

    // Set-up: round 0's inputs, a fresh service and its first, cold job,
    // repeated over the timed phase.
    let mut setup = SetupSamples::new(seconds, SETUP_REPEATS);
    setup.take_due(0.0, || cold_job(seed));

    let mut phase = TimedPhase::default();
    let start = Instant::now();
    let mut r = 0;
    while keep_going(start, seconds, phase.ops()) {
        let round = round_inputs(seed, r);
        let run = match run_round(&round, &untraced) {
            Ok(run) => run,
            Err(e) => {
                report.problems.push(format!("round {r}: {e}"));
                break;
            }
        };
        // Checks run between rounds, outside the timed window.
        let (ok, problems) = check_round(&round, &run);
        report.problems.extend(problems);
        let reference = phase.reference(run.ref_s);
        for (latency_s, ok) in run.latency_s.iter().zip(ok) {
            phase.op(*latency_s, reference, ok);
        }
        phase.unit(run.wall_s);
        r += 1;
        setup.take_due(start.elapsed().as_secs_f64(), || cold_job(seed));
    }
    setup.take_due(f64::INFINITY, || cold_job(seed));
    report.problems.append(&mut setup.problems);

    if !trace {
        end_to_end(&mut report, &setup, &phase);
        return report;
    }

    // Traced run: the first rounds again, with spans, plus the netlist
    // front-end and a direct warm engine run of every distinct netlist.
    let tracer = Tracer::new(true);
    let mut layers = Layers::of_phase(&phase, &setup);
    let mut engine = AnalysisEngine::new();
    let mut traced_walls = Vec::new();
    let mut jobs = 0u64;
    let (mut hits, mut evaluations, mut retries, mut deaths, mut submitted) = (0, 0, 0, 0, 0);
    let mut traced_ok = 0;
    for r in 0..TRACED_ROUNDS {
        let round = round_inputs(seed, r);
        let run = match run_round(&round, &tracer) {
            Ok(run) => run,
            Err(e) => {
                report.problems.push(format!("traced round {r}: {e}"));
                continue;
            }
        };
        traced_walls.push(run.wall_s);
        let (ok, problems) = check_round(&round, &run);
        traced_ok += ok.iter().filter(|&&k| k).count() as u64;
        report.problems.extend(problems);
        hits += run.stats.cache_hits;
        evaluations += run.stats.evaluations;
        retries += run.stats.retries;
        deaths += run.stats.worker_deaths;
        submitted += run.stats.submitted;
        for (i, job) in run.reports.iter().enumerate() {
            jobs += 1;
            if job.from_cache {
                continue;
            }
            if let Some(outcome) = &job.outcome {
                layers.statistics.merge(&outcome.results().statistics());
            }
            // The front-end and a direct warm run of the same text, timed
            // on their own.
            let text = &round.designs[round.schedule[i]];
            let op = (r * ROUND_JOBS + i) as u64;
            let Ok(document) = tracer.time("mna.netlist.parse", op, || netlist::parse(text)) else {
                continue;
            };
            let built = tracer.time("mna.netlist.elaborate", op, || {
                netlist::elaborate(&document)
                    .and_then(|c| netlist::elaborate_plan(&document).map(|p| (c, p)))
            });
            let Ok((circuit, plan)) = built else { continue };
            let _ = tracer.time("mna.netlist.print", op, || {
                netlist::print_with_plan(&circuit, &plan)
            });
            let direct_start = Instant::now();
            let direct = engine.run(&circuit, &plan);
            let direct_s = direct_start.elapsed().as_secs_f64();
            tracer.record("mna.analysis.run", op, direct_start, Instant::now());
            if direct.is_ok() {
                layers.analysis_busy_s += direct_s;
                layers.analysis_run_s.push(direct_s);
                layers.overhead_s.push(run.latency_s[i] - direct_s);
            }
        }
    }
    layers.ops = jobs;
    layers.submit_s = tracer.durations("service.submit");
    layers.parse_s = tracer.durations("mna.netlist.parse");
    layers.elaborate_s = tracer.durations("mna.netlist.elaborate");
    layers.print_s = tracer.durations("mna.netlist.print");
    if submitted > 0 {
        let per_job = |n: u64| n as f64 / submitted as f64;
        layers.cache_hit_ratio = per_job(hits);
        layers.evals_per_job = per_job(evaluations);
        layers.retries_per_job = per_job(retries);
    }
    layers.worker_deaths = deaths as f64;
    layers.trace_overhead_ratio = overhead_ratio(&traced_walls, &phase.unit_walls());
    report.attempted = phase.attempted + jobs;
    report.failed = (phase.attempted - phase.ok) + (jobs - traced_ok);
    layers.emit(&mut report);
    crate::write_trace(&tracer, "netlist_jobs", seed);
    report
}
