//! The host reference kernel: a fixed, self-contained unit of work that
//! runs on the same thread next to the measured ops, so per-op times can be
//! expressed in units of it and much of the host's speed drift cancels out.
//!
//! The kernel is a diode-ladder DC sweep: `STAGES` nodes chained by
//! resistors, each shunted to ground by an exponential diode, driven by a
//! source that steps through `LEVELS` values. Every level is solved by
//! damped Newton iteration with a dense, partially pivoted LU on a Jacobian
//! assembled into freshly allocated rows each iteration — the same kind of
//! work (dense factorisations, `exp()`, short-lived heap buffers) as the
//! simulator's inner loops, but written here on its own, so it calls
//! nothing in the crates being measured and can never speed up or slow down
//! with them.
//!
//! Sizing: over eight minutes of interleaved samples, the host's fast and
//! slow spells moved the workloads' op times 1.34–1.42× as much (log-log
//! slope) as a 16-node ladder on stack arrays, and 0.90–0.96× as much as
//! this 48-node ladder with heap-allocated rows (see README.md).

use std::hint::black_box;
use std::time::Instant;

const STAGES: usize = 48;
const LEVELS: usize = 10;
const SOURCE_STEP: f64 = 0.5;
const SERIES_OHMS: f64 = 1e3;
const SAT_CURRENT: f64 = 1e-14;
const THERMAL_VOLTAGE: f64 = 0.025_852;
const MAX_NEWTON: usize = 100;

/// Checksum of one kernel run: the sum over all levels of every node
/// voltage. Pinned so that a change to the kernel (or a compiler that
/// dropped part of it) is caught before any timing is reported.
const PINNED_CHECKSUM: f64 = 210.474_409_752_267_35;
const CHECKSUM_TOLERANCE: f64 = 1e-9;

/// Runs the kernel once and returns its checksum.
fn run() -> f64 {
    let mut v = vec![0.0f64; STAGES];
    let mut checksum = 0.0;
    for level in 1..=LEVELS {
        solve_level(black_box(SOURCE_STEP * level as f64), &mut v);
        checksum += v.iter().sum::<f64>();
    }
    checksum
}

/// Runs the kernel once, checks its checksum and returns its duration in
/// seconds.
pub fn timed() -> Result<f64, String> {
    let start = Instant::now();
    let checksum = black_box(run());
    let seconds = start.elapsed().as_secs_f64();
    check(checksum)?;
    Ok(seconds)
}

/// Compares a checksum with the pinned value.
fn check(checksum: f64) -> Result<(), String> {
    if (checksum - PINNED_CHECKSUM).abs() <= CHECKSUM_TOLERANCE * PINNED_CHECKSUM.abs() {
        Ok(())
    } else {
        Err(format!(
            "reference kernel checksum {checksum:?} differs from the pinned {PINNED_CHECKSUM:?}"
        ))
    }
}

/// Newton solve of the ladder at one source level, warm-started from `v`.
fn solve_level(source: f64, v: &mut [f64]) {
    let g = 1.0 / SERIES_OHMS;
    for _ in 0..MAX_NEWTON {
        let mut jac = vec![vec![0.0f64; STAGES]; STAGES];
        let mut rhs = vec![0.0f64; STAGES];
        for k in 0..STAGES {
            let left = if k == 0 { source } else { v[k - 1] };
            let e = (v[k] / THERMAL_VOLTAGE).min(40.0).exp();
            let diode = SAT_CURRENT * (e - 1.0);
            let gd = SAT_CURRENT * e / THERMAL_VOLTAGE;
            let mut residual = g * (left - v[k]) - diode;
            jac[k][k] = g + gd;
            if k > 0 {
                jac[k][k - 1] = -g;
            }
            if k + 1 < STAGES {
                residual -= g * (v[k] - v[k + 1]);
                jac[k][k] += g;
                jac[k][k + 1] = -g;
            }
            rhs[k] = residual;
        }
        lu_solve(&mut jac, &mut rhs);
        let mut step = 0.0f64;
        for (vk, dv) in v.iter_mut().zip(&rhs) {
            // Junction limiting: no node moves more than 2 Vt per iteration
            // upwards, the classic SPICE diode damping.
            let dv = dv.min(2.0 * THERMAL_VOLTAGE);
            *vk += dv;
            step = step.max(dv.abs());
        }
        if step < 1e-12 {
            break;
        }
    }
}

/// In-place dense LU with partial pivoting followed by forward and back
/// substitution; on return `b` holds the solution of `a x = b`.
fn lu_solve(a: &mut [Vec<f64>], b: &mut [f64]) {
    let n = b.len();
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .expect("non-empty column");
        a.swap(col, pivot);
        b.swap(col, pivot);
        let (done, rest) = a.split_at_mut(col + 1);
        let (b_done, b_rest) = b.split_at_mut(col + 1);
        let pivot_row = &done[col];
        for (row, rhs) in rest.iter_mut().zip(b_rest) {
            let factor = row[col] / pivot_row[col];
            if factor != 0.0 {
                for (x, p) in row[col..].iter_mut().zip(&pivot_row[col..]) {
                    *x -= factor * p;
                }
                *rhs -= factor * b_done[col];
            }
        }
    }
    for row in (0..n).rev() {
        let tail: f64 = a[row][row + 1..]
            .iter()
            .zip(&b[row + 1..])
            .fold(b[row], |sum, (x, y)| sum - x * y);
        b[row] = tail / a[row][row];
    }
}
