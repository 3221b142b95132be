//! The machine-speed probe.
//!
//! The sandbox's two vCPUs share physical cores with other tenants, and
//! identical code runs up to 1.45x slower for a minute or two at a time
//! (measured: `stream_burst` bursts of 2.2 ms vs 3.2 ms, `train_cluster`
//! rounds of 49 ms vs 68 ms, process CPU time inflating in step). A ten
//! second run cannot average that out, so every timed interval is reported
//! *at reference machine speed*: multiplied by the speed a fixed probe read
//! just before it.
//!
//! The probe is two kernels the harness owns and no engine change can
//! touch: an arithmetic one (sixteen independent multiply-add chains in
//! registers — throughput-bound, so it slows when a hyperthread sibling is
//! busy) and a memory one (one pass over a 4 MiB buffer — it slows when a
//! neighbour takes cache or bandwidth). Speed is the geometric mean of the
//! two against fixed reference times. The workloads sit between the two
//! kernels (their measured elasticity to the arithmetic kernel alone is
//! 0.3 for `quant_cluster` to 0.8 for `train_cluster`), which is why the
//! mean of both tracks them better than either alone.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Reference time of the arithmetic kernel: what it takes on the sandbox
/// when nothing else contends. A machine that runs it in this time, and the
/// memory kernel in [`MEMORY_REFERENCE_NS`], has speed 1.
const ARITHMETIC_REFERENCE_NS: f64 = 105_000.0;

/// Reference time of the memory kernel.
const MEMORY_REFERENCE_NS: f64 = 700_000.0;

/// Words of the memory kernel's buffer (4 MiB: past the private caches).
const MEMORY_WORDS: usize = 512 << 10;

/// Least time between two probe readings, so that the probe costs a few
/// percent of the measuring window even on sub-millisecond rounds.
const MIN_SPACING: Duration = Duration::from_millis(100);

/// Machine speed relative to the reference (above 1 = faster).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speed {
    /// Of the load generator's own core: scales what the engine does on the
    /// caller's thread (offers, local training).
    pub serial: f64,
    /// Of all cores at once, set by the slowest: scales what the engine
    /// fans out over threads (a drive). The two vCPUs are not equally fast
    /// at all times, so this is not `serial` over again.
    pub parallel: f64,
}

/// Reads machine speed between timed intervals.
#[derive(Debug)]
pub struct SpeedProbe {
    /// One memory-kernel buffer per core; the first is the caller's.
    buffers: Vec<Vec<u64>>,
    last: Option<(Instant, Speed)>,
    readings: Vec<Speed>,
}

fn arithmetic_kernel() {
    let mut a = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let mut f = [1.0f64, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7];
    for i in 0..40_000u64 {
        for k in 0..8 {
            a[k] = a[k].wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
            f[k] = f[k] * 0.999_999_9 + 0.25;
        }
    }
    black_box((a, f));
}

fn memory_kernel(buffer: &mut [u64]) {
    let mut carry = 0u64;
    for word in buffer.iter_mut() {
        carry = carry.wrapping_add(*word);
        *word ^= carry;
    }
    black_box(carry);
}

/// Both kernels on this thread: speed against the reference times.
fn kernels_speed(buffer: &mut [u64]) -> f64 {
    let start = Instant::now();
    arithmetic_kernel();
    let arithmetic_ns = start.elapsed().as_nanos() as f64;
    let start = Instant::now();
    memory_kernel(buffer);
    let memory_ns = start.elapsed().as_nanos() as f64;
    ((ARITHMETIC_REFERENCE_NS / arithmetic_ns.max(1.0))
        * (MEMORY_REFERENCE_NS / memory_ns.max(1.0)))
    .sqrt()
}

impl SpeedProbe {
    pub fn new() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        SpeedProbe {
            buffers: vec![vec![1; MEMORY_WORDS]; cores],
            last: None,
            readings: Vec::new(),
        }
    }

    /// Runs the kernels now: alone on this thread, then on every core at
    /// once.
    fn read(&mut self) -> Speed {
        let serial = kernels_speed(&mut self.buffers[0]);
        let parallel = std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .buffers
                .iter_mut()
                .map(|buffer| scope.spawn(|| kernels_speed(buffer)))
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("probe kernels do not panic"))
                .fold(f64::INFINITY, f64::min)
        });
        let speed = Speed { serial, parallel };
        self.readings.push(speed);
        self.last = Some((Instant::now(), speed));
        speed
    }

    /// Machine speed for the interval about to be timed: a fresh reading,
    /// or the last one if it is younger than [`MIN_SPACING`].
    pub fn speed(&mut self) -> Speed {
        match self.last {
            Some((at, speed)) if at.elapsed() < MIN_SPACING => speed,
            _ => self.read(),
        }
    }

    /// Every reading taken so far, oldest first.
    pub fn readings(&self) -> &[Speed] {
        &self.readings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_positive_and_spaced() {
        let mut probe = SpeedProbe::new();
        let first = probe.speed();
        assert!(first.serial.is_finite() && first.serial > 0.0);
        assert!(first.parallel.is_finite() && first.parallel > 0.0);
        // A second call right away reuses the reading instead of probing.
        assert_eq!(probe.speed(), first);
        assert_eq!(probe.readings().len(), 1);
        std::thread::sleep(MIN_SPACING);
        probe.speed();
        assert_eq!(probe.readings().len(), 2);
    }
}
