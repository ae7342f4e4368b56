//! The per-layer metric set of the traced run. Every workload reports
//! every metric; a layer the workload never calls reads 0 (it did none of
//! that work), which is the "predicted no move" side of each pairing in
//! README.md.

use crate::measure::{median, quantile, Report, SetupSamples, TimedPhase};
use harvester_mna::transient::RunStatistics;

#[derive(Debug, Default)]
pub struct Layers {
    /// Σ evaluation busy ÷ (workers × generation span).
    pub parallel_efficiency: f64,
    pub gen_ms: Vec<f64>,
    pub breed_ms_per_gen: f64,
    /// Brute-force fallbacks and envelope grid points behind them.
    pub envelope_fallbacks: usize,
    pub envelope_grid_points: usize,
    /// Per-op netlist front-end times, seconds (empty: none done).
    pub parse_s: Vec<f64>,
    pub elaborate_s: Vec<f64>,
    pub print_s: Vec<f64>,
    /// Per-op `AnalysisEngine::run` times, seconds.
    pub analysis_run_s: Vec<f64>,
    /// Solver counters summed over `ops` ops, and the time spent in the
    /// analyses behind them.
    pub statistics: RunStatistics,
    pub ops: u64,
    pub analysis_busy_s: f64,
    /// Service figures.
    pub submit_s: Vec<f64>,
    pub overhead_s: Vec<f64>,
    pub cache_hit_ratio: f64,
    pub evals_per_job: f64,
    pub retries_per_job: f64,
    pub worker_deaths: f64,
    /// Reference-kernel times, seconds.
    pub ref_s: Vec<f64>,
    /// Host wall-time throughput and per-op latencies (ms) of the untraced
    /// timed phase, and the median host wall time of a set-up.
    pub host_ops_per_s: f64,
    pub host_op_ms: Vec<f64>,
    pub host_setup_s: f64,
    /// Traced ÷ untraced wall time of a unit of work (the untraced ÷
    /// traced throughput).
    pub trace_overhead_ratio: f64,
}

/// `num / den`, or 0 when the workload did none of the work behind `den`.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl Layers {
    /// The layer set with the host figures of an untraced run.
    pub fn of_phase(phase: &TimedPhase, setup: &SetupSamples) -> Self {
        Layers {
            ref_s: phase.ref_s.clone(),
            host_ops_per_s: phase.ops_per_s(),
            host_op_ms: phase.op_ms(),
            host_setup_s: setup.host_setup_s(),
            ..Layers::default()
        }
    }

    pub fn emit(&self, report: &mut Report) {
        let s = &self.statistics;
        let per_op = |n: usize| ratio(n as f64, self.ops as f64);
        report.metric(
            "optim.evaluate.parallel_efficiency",
            self.parallel_efficiency,
            "ratio",
        );
        report.metric("optim.evaluate.gen_ms_p50", median(&self.gen_ms), "ms");
        report.metric("optim.ga.breed_ms_per_gen", self.breed_ms_per_gen, "ms");
        report.metric(
            "core.envelope.fallback_ratio",
            ratio(
                self.envelope_fallbacks as f64,
                self.envelope_grid_points as f64,
            ),
            "ratio",
        );
        report.metric(
            "mna.netlist.parse_us_p50",
            median(&self.parse_s) * 1e6,
            "us",
        );
        report.metric(
            "mna.netlist.elaborate_us_p50",
            median(&self.elaborate_s) * 1e6,
            "us",
        );
        report.metric(
            "mna.netlist.print_us_p50",
            median(&self.print_s) * 1e6,
            "us",
        );
        report.metric(
            "mna.analysis.run_ms_p50",
            median(&self.analysis_run_s) * 1e3,
            "ms",
        );
        report.metric(
            "mna.transient.newton_iters_per_op",
            per_op(s.newton_iterations),
            "count/op",
        );
        report.metric(
            "mna.transient.accepted_steps_per_op",
            per_op(s.accepted_steps),
            "count/op",
        );
        report.metric(
            "mna.transient.rejected_steps_per_op",
            per_op(s.rejected_steps + s.lte_rejections),
            "count/op",
        );
        report.metric(
            "mna.shooting.iters_per_op",
            per_op(s.shooting_iterations),
            "count/op",
        );
        report.metric(
            "mna.shooting.integrated_cycles_per_op",
            per_op(s.integrated_cycles),
            "count/op",
        );
        report.metric(
            "mna.fallbacks_per_op",
            per_op(
                s.gmres_fallbacks
                    + s.brute_force_fallbacks
                    + s.homotopy_escalations
                    + s.recovery_retries,
            ),
            "count/op",
        );
        report.metric(
            "numerics.lu.factorizations_per_op",
            per_op(s.full_factorizations + s.repivot_factorizations),
            "count/op",
        );
        report.metric(
            "numerics.lu.linear_solves_per_op",
            per_op(s.linear_solves),
            "count/op",
        );
        report.metric(
            "numerics.us_per_linear_solve",
            ratio(self.analysis_busy_s * 1e6, s.linear_solves as f64),
            "us",
        );
        report.metric("service.submit_us_p50", median(&self.submit_s) * 1e6, "us");
        report.metric(
            "service.overhead_ms_p50",
            median(&self.overhead_s) * 1e3,
            "ms",
        );
        report.metric("service.cache_hit_ratio", self.cache_hit_ratio, "ratio");
        report.metric("service.evals_per_job", self.evals_per_job, "count/job");
        report.metric("service.retries_per_job", self.retries_per_job, "count/job");
        report.metric("service.worker_deaths", self.worker_deaths, "count");
        report.metric("host.ref_ms_p50", median(&self.ref_s) * 1e3, "ms");
        report.metric("host.ops_per_s", self.host_ops_per_s, "1/s");
        report.metric("host.op_ms_p50", median(&self.host_op_ms), "ms");
        report.metric("host.op_ms_p90", quantile(&self.host_op_ms, 0.9), "ms");
        report.metric("host.setup_s", self.host_setup_s, "s");
        report.metric("trace.overhead_ratio", self.trace_overhead_ratio, "ratio");
    }
}
