//! Host-speed gauge: a fixed kernel owned by the benchmark, timed
//! between the units of work a workload measures.
//!
//! The benchmark runs on a few cores of a shared host whose speed swings
//! by up to 2x, over seconds to minutes, with its neighbours' load, so
//! the same program measures up to 2x slower in one run than in the
//! next. Timed end-to-end metrics are therefore medians over the run
//! multiplied by [`Gauge::scale`]: a reference reading over the median
//! gauge reading of the same run, raised to [`SENSITIVITY`].
//! The gauge is read between the units of measured work, so both
//! medians sample the same stretch of host time and a slow stretch
//! raises them together; a change in the program moves the metric as
//! much as it moves the program's own time, because the gauge runs none
//! of the program's code.
//!
//! The workloads' times swing less than the gauge's tight arithmetic
//! loops do: the slope of log time on log gauge reading, fitted over
//! ten-run sets in three host states, ranged from 0.4 to 1.2 and moved
//! with the state. The scale therefore removes a fixed part of the
//! gauge's swing, the exponent that left the least run-to-run spread
//! over all thirty runs of each workload.
//!
//! One reading runs the kernel on two threads at once, as the program's
//! parallel kernels do on a 2-core host. The kernel mixes what the
//! workloads spend their time on: an L1-resident 64x64 f32 multiply-add
//! loop, a dependent integer chain, and a 256x256 f32 matrix product
//! whose operands spill out of L2.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Median reading of the reference host, in seconds: a round figure
/// near the lowest run medians seen on a 2-vCPU Xeon VM (31 to 47 ms
/// while its host was busy). Scaled times read as a host with this
/// reading would measure them.
pub const REFERENCE_S: f64 = 0.03;
/// Exponent on the gauge ratio in [`Gauge::scale`].
pub const SENSITIVITY: f64 = 0.6;
/// Steps of the integer chain per reading.
const INT_STEPS: u64 = 2_000_000;

/// `c += a * b` for `n`x`n` matrices, `passes` times.
fn matmul(n: usize, passes: usize) {
    let a = vec![0.5f32; n * n];
    let b = vec![0.25f32; n * n];
    let mut c = vec![0.0f32; n * n];
    for _ in 0..passes {
        for i in 0..n {
            for k in 0..n {
                let x = a[i * n + k];
                for j in 0..n {
                    c[i * n + j] += x * b[k * n + j];
                }
            }
        }
        black_box(&mut c);
    }
}

fn kernel() {
    matmul(64, 20);
    let mut x = 0u64;
    for i in 0..INT_STEPS {
        x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
    }
    matmul(256, 1);
}

/// Wall time of one reading, in seconds.
fn reading() -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let other = scope.spawn(kernel);
        kernel();
        other.join().expect("gauge thread");
    });
    start.elapsed().as_secs_f64()
}

/// The gauge readings of one run.
#[derive(Debug, Default)]
pub struct Gauge {
    readings: Vec<f64>,
}

impl Gauge {
    /// Takes `readings` readings; call between units of measured work.
    pub fn sample(&mut self, readings: usize) {
        for _ in 0..readings {
            self.readings.push(reading());
        }
    }

    /// Factor from this run's host speed to the reference host's:
    /// [`REFERENCE_S`] over the median reading, to the power
    /// [`SENSITIVITY`].
    pub fn scale(&self) -> f64 {
        (REFERENCE_S / self.median_s()).powf(SENSITIVITY)
    }

    pub fn median_s(&self) -> f64 {
        median(&self.readings)
    }

    pub fn readings(&self) -> usize {
        self.readings.len()
    }
}
