//! `array_pss`: the 32-stage coupled harvester array (98 unknowns) through
//! its own `.tran` and `.pss` cards on one thread with one warm
//! `AnalysisEngine`. Above the 48-unknown threshold the shooting closure
//! goes matrix-free, so sparse LU and GMRES carry the work.
//!
//! An op parses fresh netlist text whose generator amplitude carries a
//! seeded ±1 % perturbation (op `k` draws from `Rng::new(seed, k)`) and
//! runs its plan: same structure and cost every time, never the same
//! input twice.

use crate::layers::Layers;
use crate::measure::{
    self, end_to_end, keep_going, overhead_ratio, Report, Rng, SetupSamples, TimedPhase, Tracer,
};
use crate::refkernel;
use harvester_experiments::arrays::coupled_array_netlist;
use harvester_mna::analysis::{AnalysisEngine, AnalysisResults};
use harvester_mna::netlist;
use std::time::Instant;

const STAGES: usize = 32;
/// The generator card's amplitude in the fixture text.
const AMPLITUDE_CARD: &str = "SIN(0 2.5 ";
const NOMINAL_AMPLITUDE: f64 = 2.5;
/// Ops re-run with spans in the traced run.
const TRACED_OPS: usize = 24;

/// Period-mean output voltage (V) of every stage of the unperturbed
/// fixture's periodic steady state.
const PINNED_STAGE_MEANS: [f64; STAGES] = [
    2.7767103556155712,
    2.7465353302434083,
    2.804218048061926,
    2.7763088603457415,
    2.746361266177844,
    2.820377775322598,
    2.8008429568919224,
    2.772440380561287,
    2.741950222437769,
    2.800267007643005,
    2.7720704656147053,
    2.7418115457134187,
    2.816564225101971,
    2.7968228249937486,
    2.7681259966008476,
    2.737316965082148,
    2.796275446548125,
    2.7677881984867643,
    2.838349385498135,
    2.8127116968612955,
    2.7927612063203417,
    2.7637666797850384,
    2.732634980888615,
    2.792242896711192,
    2.7634615416008463,
    2.834718914027743,
    2.808819745278431,
    2.788657619073223,
    2.7593618989224975,
    2.727903683507527,
    2.788168883050511,
    2.75908997037112,
];
/// Relative tolerance of the pinned stage outputs.
const PIN_TOLERANCE: f64 = 1e-6;

/// The fixture text with its generator amplitude scaled by `1 + delta`.
fn perturbed(base: &str, delta: f64) -> String {
    base.replacen(
        AMPLITUDE_CARD,
        &format!("SIN(0 {:?} ", NOMINAL_AMPLITUDE * (1.0 + delta)),
        1,
    )
}

fn op_text(base: &str, seed: u64, k: usize) -> String {
    perturbed(base, Rng::new(seed, k as u64).uniform(-0.01, 0.01))
}

/// Period-mean output of every stage, or why the analysis is unusable.
fn stage_means(results: &AnalysisResults) -> Result<Vec<f64>, String> {
    let pss = results.steady_state().ok_or("no .pss result")?;
    if !pss.converged {
        return Err(format!(
            ".pss did not converge (closure {:e})",
            pss.closure_error
        ));
    }
    (0..STAGES)
        .map(|s| {
            let v = pss
                .result
                .voltage_by_name(&format!("out{s}"))
                .map_err(|e| e.to_string())?;
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            if mean.is_finite() {
                Ok(mean)
            } else {
                Err(format!("stage {s} output is {mean}"))
            }
        })
        .collect()
}

/// Parses and runs one op's text on `engine`.
fn run_op(engine: &mut AnalysisEngine, text: &str) -> Result<AnalysisResults, String> {
    let (circuit, plan) = netlist::build_with_plan(text).map_err(|e| e.to_string())?;
    engine.run(&circuit, &plan).map_err(|e| e.to_string())
}

/// One set-up: the fixture text, a fresh engine and its first, cold run of
/// the unperturbed fixture. Returns the text, the warm engine, the
/// duration, and every stage output that misses its pinned value.
fn cold_fixture() -> (String, AnalysisEngine, f64, Vec<String>) {
    let start = Instant::now();
    let base = coupled_array_netlist(STAGES);
    let mut engine = AnalysisEngine::new();
    let results = run_op(&mut engine, &base);
    let seconds = start.elapsed().as_secs_f64();
    let problems = match results.and_then(|r| stage_means(&r)) {
        Ok(means) => means
            .iter()
            .zip(PINNED_STAGE_MEANS)
            .enumerate()
            .filter(|(_, (m, p))| (*m - p).abs() > PIN_TOLERANCE * p.abs())
            .map(|(s, (m, p))| format!("stage {s} mean output {m:?} differs from the pinned {p:?}"))
            .collect(),
        Err(e) => vec![format!("unperturbed fixture: {e}")],
    };
    (base, engine, seconds, problems)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();

    // Set-up: the first engine and fixture text serve the timed phase; the
    // later repeats are spread over it.
    let mut setup = SetupSamples::new(seconds, measure::SETUP_REPEATS);
    let mut first = None;
    setup.take_due(0.0, || {
        let (base, engine, seconds, problems) = cold_fixture();
        first = Some((base, engine));
        (seconds, problems)
    });
    let (base, mut engine) = first.expect("a set-up repeat is due at the start");
    let repeat = || {
        let (_, _, seconds, problems) = cold_fixture();
        (seconds, problems)
    };
    if !base.contains(AMPLITUDE_CARD) {
        report
            .problems
            .push("fixture text has no generator amplitude to perturb".into());
    }

    let mut phase = TimedPhase::default();
    let start = Instant::now();
    let mut k = 0;
    while keep_going(start, seconds, phase.ops()) {
        let text = op_text(&base, seed, k);
        let unit_start = Instant::now();
        let ref_s = refkernel::timed();
        let op_start = Instant::now();
        let results = run_op(&mut engine, &text);
        let op_s = op_start.elapsed().as_secs_f64();
        let unit_s = unit_start.elapsed().as_secs_f64();
        let ref_s = ref_s.unwrap_or_else(|e| {
            report.problems.push(e);
            f64::NAN
        });
        let checked = results.and_then(|r| stage_means(&r));
        if let Err(e) = &checked {
            report.problems.push(format!("op {k}: {e}"));
        }
        let reference = phase.reference(ref_s);
        phase.op(op_s, reference, checked.is_ok() && ref_s.is_finite());
        phase.unit(unit_s);
        k += 1;
        setup.take_due(start.elapsed().as_secs_f64(), repeat);
    }
    setup.take_due(f64::INFINITY, repeat);
    report.problems.append(&mut setup.problems);

    if !trace {
        end_to_end(&mut report, &setup, &phase);
        return report;
    }

    // Traced run: the first ops again, with the front-end split into its
    // public stages and the engine run timed on its own.
    let tracer = Tracer::new(true);
    let mut layers = Layers::of_phase(&phase, &setup);
    let mut traced_walls = Vec::new();
    let mut traced_ok = 0;
    for k in 0..TRACED_OPS {
        let text = op_text(&base, seed, k);
        let op = k as u64;
        let unit_start = Instant::now();
        let ref_s = tracer.time("host.ref", op, refkernel::timed);
        let results = tracer
            .time("mna.netlist.parse", op, || netlist::parse(&text))
            .and_then(|document| {
                tracer.time("mna.netlist.elaborate", op, || {
                    let circuit = netlist::elaborate(&document)?;
                    Ok((circuit, netlist::elaborate_plan(&document)?))
                })
            })
            .map_err(|e| e.to_string())
            .and_then(|(circuit, plan)| {
                tracer
                    .time("mna.analysis.run", op, || engine.run(&circuit, &plan))
                    .map_err(|e| e.to_string())
            });
        traced_walls.push(unit_start.elapsed().as_secs_f64());
        layers.ops += 1;
        match results.and_then(|r| stage_means(&r).map(|_| r)) {
            Ok(r) if ref_s.is_ok() => {
                traced_ok += 1;
                layers.statistics.merge(&r.statistics());
            }
            Ok(_) => report.problems.push(format!("traced op {k}: kernel check")),
            Err(e) => report.problems.push(format!("traced op {k}: {e}")),
        }
    }
    layers.parse_s = tracer.durations("mna.netlist.parse");
    layers.elaborate_s = tracer.durations("mna.netlist.elaborate");
    layers.analysis_run_s = tracer.durations("mna.analysis.run");
    layers.analysis_busy_s = layers.analysis_run_s.iter().sum();
    layers.trace_overhead_ratio = overhead_ratio(&traced_walls, &phase.unit_walls());
    report.attempted = phase.attempted + TRACED_OPS as u64;
    report.failed = (phase.attempted - phase.ok) + (TRACED_OPS as u64 - traced_ok);
    layers.emit(&mut report);
    crate::write_trace(&tracer, "array_pss", seed);
    report
}
