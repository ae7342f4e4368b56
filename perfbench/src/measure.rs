//! Measurement plumbing shared by the workloads: the timed-phase record,
//! quantiles, the end-to-end metric set, the span recorder of the traced
//! run, and the seeded input generator.

use crate::refkernel;
use std::sync::Mutex;
use std::time::Instant;

/// A p90 is reported only when at least this many samples lie beyond it,
/// so every timed phase runs at least `10 * MIN_TAIL` ops.
pub const MIN_TAIL: usize = 10;
/// Minimum ops in a timed phase (keeps `op_*_p90` reportable).
pub const MIN_OPS: usize = 10 * MIN_TAIL;
/// Times each workload's set-up is repeated; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 11;

/// `setup_s` is set-up time in reference units, scaled to the seconds it
/// would take on a host where one reference-kernel run takes this long
/// (on the 2-vCPU host of README.md it takes 0.6–1.0 ms). Raw set-up
/// times of identical code moved by up to 1.4x between sets of runs as the
/// host changed speed; the raw median is reported as `host.setup_s`.
pub const REF_KERNEL_S: f64 = 1e-3;

/// Set-up repeats spread evenly over a run: the first before the timed
/// phase, each later one between units of work once its share of the
/// phase has passed, each right after a reference-kernel run. The host
/// changes speed for seconds to minutes at a time, so repeats made back
/// to back all fall in one spell, and their median jumped between the
/// spells' levels (1.6x apart) from run to run.
#[derive(Debug)]
pub struct SetupSamples {
    seconds: f64,
    repeats: usize,
    /// Duration of every repeat so far, and of the kernel run before it,
    /// seconds.
    durations: Vec<(f64, f64)>,
    /// What the repeats' output checks (and kernel checksums) found.
    pub problems: Vec<String>,
}

impl SetupSamples {
    /// Schedules `repeats` set-ups over a timed phase of `seconds`.
    pub fn new(seconds: f64, repeats: usize) -> Self {
        SetupSamples {
            seconds,
            repeats,
            durations: Vec::new(),
            problems: Vec::new(),
        }
    }

    /// Runs every repeat due `elapsed` seconds into the timed phase (every
    /// one left for `f64::INFINITY`). `set_up` returns its duration in
    /// seconds and the problems its output check found.
    pub fn take_due<P: IntoIterator<Item = String>>(
        &mut self,
        elapsed: f64,
        mut set_up: impl FnMut() -> (f64, P),
    ) {
        while self.durations.len() < self.repeats
            && self.durations.len() as f64 * self.seconds / self.repeats as f64 <= elapsed
        {
            let ref_s = refkernel::timed().unwrap_or_else(|e| {
                self.problems.push(e);
                f64::NAN
            });
            let (seconds, problems) = set_up();
            self.durations.push((seconds, ref_s));
            self.problems.extend(problems);
        }
    }

    /// Median set-up time in reference units, scaled by [`REF_KERNEL_S`].
    pub fn setup_s(&self) -> f64 {
        let units: Vec<f64> = self.durations.iter().map(|&(s, r)| s / r).collect();
        median(&units) * REF_KERNEL_S
    }

    /// Median host wall time of a set-up, seconds.
    pub fn host_setup_s(&self) -> f64 {
        let seconds: Vec<f64> = self.durations.iter().map(|d| d.0).collect();
        median(&seconds)
    }
}

/// One metric as printed: name, value, unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one workload run, before printing.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Ops attempted in the timed phase.
    pub attempted: u64,
    /// Ops that failed or did not pass their output check.
    pub failed: u64,
    /// Human-readable reasons for every failed check (printed to stderr).
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The single JSON line the benchmark ends with.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Shortest round-trip decimal form; JSON has no NaN or infinity, so those
/// print as `null` (and are reported as a failed check by the caller).
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

/// Linear-interpolated quantile of unsorted samples (`q` in `[0, 1]`); 0
/// for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Kernel samples in the rolling median that normalises each op: a single
/// 0.6 ms sample carries timer and scheduling noise, while host speed
/// drifts over seconds.
const REF_WINDOW: usize = 9;

/// Everything the timed phase of a workload records.
#[derive(Debug, Default)]
pub struct TimedPhase {
    /// Host wall time of each unit of work (a campaign, a round of jobs,
    /// one array analysis), reference-kernel runs included, with the end
    /// of its kernel samples in `ref_s`.
    units: Vec<(f64, usize)>,
    /// Host latency of every op, seconds, with the kernel sample taken
    /// next to it.
    op_s: Vec<(f64, usize)>,
    /// Every reference-kernel time measured in the phase, seconds.
    pub ref_s: Vec<f64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that completed and passed their output check.
    pub ok: u64,
}

impl TimedPhase {
    /// Records a reference-kernel time; returns its index for [`Self::op`].
    pub fn reference(&mut self, seconds: f64) -> usize {
        self.ref_s.push(seconds);
        self.ref_s.len() - 1
    }

    /// Records an attempted op's latency and the kernel sample next to it.
    pub fn op(&mut self, seconds: f64, reference: usize, ok: bool) {
        self.op_s.push((seconds, reference));
        self.attempted += 1;
        self.ok += u64::from(ok);
    }

    /// Closes a unit of work: its wall time covers every op and kernel
    /// sample recorded since the previous unit.
    pub fn unit(&mut self, wall_s: f64) {
        self.units.push((wall_s, self.ref_s.len()));
    }

    pub fn ops(&self) -> usize {
        self.op_s.len()
    }

    /// Unit wall times, seconds.
    pub fn unit_walls(&self) -> Vec<f64> {
        self.units.iter().map(|u| u.0).collect()
    }

    /// Ops attempted per second of host wall time.
    pub fn ops_per_s(&self) -> f64 {
        self.attempted as f64 / self.unit_walls().iter().sum::<f64>()
    }

    /// Host latency of every op, milliseconds.
    pub fn op_ms(&self) -> Vec<f64> {
        self.op_s.iter().map(|op| op.0 * 1e3).collect()
    }

    /// Rolling median of the kernel samples around each sample.
    fn smoothed_ref(&self) -> Vec<f64> {
        let n = self.ref_s.len();
        (0..n)
            .map(|i| {
                let lo = i.saturating_sub(REF_WINDOW / 2);
                median(&self.ref_s[lo..(lo + REF_WINDOW).min(n)])
            })
            .collect()
    }

    /// The phase's wall time in reference units: each unit's wall time
    /// over the median kernel time inside it.
    fn ref_units(&self, smoothed: &[f64]) -> f64 {
        let mut first = 0;
        let mut total = 0.0;
        for &(wall_s, end) in &self.units {
            total += wall_s / median(&smoothed[first..end]);
            first = end;
        }
        total
    }
}

/// Mean traced ÷ mean untraced wall time of a unit of work (units of one
/// workload are alike in cost).
pub fn overhead_ratio(traced_s: &[f64], untraced_s: &[f64]) -> f64 {
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    mean(traced_s) / mean(untraced_s)
}

/// Whether a timed phase that started at `start` should run another unit.
pub fn keep_going(start: Instant, seconds: f64, ops: usize) -> bool {
    start.elapsed().as_secs_f64() < seconds || ops < MIN_OPS
}

/// Fills the end-to-end metric set shared by every workload. Host times
/// of the ops are not in it: the host's own speed moves them by more than
/// any bound the benchmark may set (README.md, "Steadiness"), so they are
/// reported with the host layer of the traced run instead.
pub fn end_to_end(report: &mut Report, setup: &SetupSamples, phase: &TimedPhase) {
    report.attempted = phase.attempted;
    report.failed = phase.attempted - phase.ok;
    let smoothed = phase.smoothed_ref();
    let op_ref: Vec<f64> = phase.op_s.iter().map(|&(s, r)| s / smoothed[r]).collect();
    report.metric("setup_s", setup.setup_s(), "s");
    report.metric(
        "ops_per_kref",
        phase.attempted as f64 / (phase.ref_units(&smoothed) / 1e3),
        "1/kref",
    );
    report.metric("op_ref_p50", median(&op_ref), "ref");
    report.metric("op_ref_p90", quantile(&op_ref, 0.9), "ref");
    report.metric(
        "ok_ratio",
        phase.ok as f64 / phase.attempted as f64,
        "ratio",
    );
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Peak resident set of this process (`VmHWM`), in MB; 0 where `/proc`
/// is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the seeded generator behind every workload input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One recorded span of the traced run.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The op (evaluation, job, analysis) or unit the span belongs to.
    pub op: u64,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder of the traced run, written out when the run
/// ends. Disabled recorders drop every span.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn record(&self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if self.enabled {
            let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
            let span = Span {
                name,
                op,
                start_ns: ns(start),
                end_ns: ns(end),
            };
            self.spans.lock().expect("span log poisoned").push(span);
        }
    }

    /// Times `f` as one span.
    pub fn time<T>(&self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.record(name, op, start, Instant::now());
        value
    }

    /// Every recorded span named `name`, in recording order.
    pub fn spans(&self, name: &str) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span log poisoned")
            .iter()
            .filter(|s| s.name == name)
            .cloned()
            .collect()
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans(name).iter().map(Span::seconds).collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span log poisoned").iter() {
            writeln!(
                out,
                "{{\"name\": \"{}\", \"op\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
