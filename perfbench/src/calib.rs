//! Host-speed calibration. On a cloud VM whose physical cores other tenants
//! share, their load slows everything a run does — by up to ~1.7x on a
//! 2-vCPU KVM guest — in spells lasting from tens of milliseconds to
//! minutes, so raw wall times of one build spread by 30% and more between
//! runs. An untraced run therefore runs a fixed kernel (benchmark code,
//! never the program's) after every timed piece and around every set-up,
//! and reports each piece at reference speed: its wall time times
//! [`REF_NS`] over the mean time of the kernel runs just before and just
//! after it. Both share the host's state of the moment, so the ratio keeps
//! what the program changes and drops most of what the neighbours do. It
//! drops less when they slow the workload's memory traffic more than the
//! kernel's arithmetic, as in the slowest spells. The raw wall-time figures
//! are printed beside the calibrated ones.

use crate::layers::now_ns;
use std::cell::RefCell;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, PoisonError};

/// Side of the kernel's square f32 matrices.
const N: usize = 32;
/// Matrix products per kernel run.
const PRODUCTS: usize = 48;
/// Entries of the kernel's integer table.
const TABLE: usize = 1 << 11;
/// Dependent loads of the table walk.
const WALK: usize = 1 << 16;
/// The kernel time every calibrated time is reported at: about its median
/// on a 2-vCPU KVM guest of a Sapphire Rapids-class Xeon, where calibrated
/// and raw figures then read alike.
pub const REF_NS: f64 = 1.0e6;

/// A fixed mix of the arithmetic the workloads run: f32 matrix products
/// (the tensor kernels) and a data-dependent walk over an integer table
/// (the predictor's cost cache and the checkpoint codec). Its 28 KiB fit
/// in L1 and are touched before each timed run, so its time follows the
/// core's speed, not what the workload left in the caches.
struct Kernel {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    table: Vec<u64>,
}

impl Kernel {
    fn new() -> Kernel {
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let unit = |v: u64| (v >> 40) as f32 / (1u64 << 24) as f32;
        Kernel {
            a: (0..N * N).map(|_| unit(next())).collect(),
            b: (0..N * N).map(|_| unit(next())).collect(),
            c: vec![0.0; N * N],
            table: (0..TABLE).map(|_| next()).collect(),
        }
    }

    /// Bring the kernel's data into L1.
    fn touch(&mut self) {
        self.c.fill(0.0);
        let floats: f32 = self.a.iter().chain(&self.b).sum();
        let ints = self.table.iter().fold(0, |h: u64, &v| h ^ v);
        black_box((floats, ints));
    }

    fn run(&mut self) {
        for _ in 0..PRODUCTS {
            self.c.fill(0.0);
            for i in 0..N {
                let row = &mut self.c[i * N..(i + 1) * N];
                for k in 0..N {
                    let x = self.a[i * N + k];
                    for (c, &b) in row.iter_mut().zip(&self.b[k * N..(k + 1) * N]) {
                        *c += x * b;
                    }
                }
            }
            black_box(&self.c);
        }
        let mut h = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..WALK {
            let v = self.table[(h as usize) & (TABLE - 1)];
            h = if v & 1 == 0 {
                (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
            } else {
                h.rotate_left(17).wrapping_add(v)
            };
        }
        black_box(h);
    }
}

/// One calibration: the kernel run at once on `lanes` threads.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Wall interval of the whole calibration, which places it in time.
    pub begin: u64,
    pub end: u64,
    /// The slowest lane's kernel time.
    pub ns: f64,
    pub lanes: usize,
}

/// Lanes [`mark`] calibrates on; 0 while calibration is off.
static LANES: AtomicUsize = AtomicUsize::new(0);
/// Every calibration since the last [`take`].
static SAMPLES: Mutex<Vec<Sample>> = Mutex::new(Vec::new());

thread_local! {
    static KERNEL: RefCell<Kernel> = RefCell::new(Kernel::new());
}

/// Calibrate [`mark`] on `lanes` threads from now on, the threads the timed
/// pieces run on; 0 turns calibration off (traced runs leave it off, where
/// it would only add time the spans do not cover).
pub fn enable(lanes: usize) {
    LANES.store(lanes, Ordering::Relaxed);
}

/// Calibrate on the lanes set by [`enable`], when calibration is on.
pub fn mark() {
    let lanes = LANES.load(Ordering::Relaxed);
    if lanes > 0 {
        record(lanes);
    }
}

/// Calibrate on one lane, when calibration is on: for the single-threaded
/// set-ups.
pub fn mark_one() {
    if LANES.load(Ordering::Relaxed) > 0 {
        record(1);
    }
}

/// Warm the kernel's data, wait for the other lanes, and time one run.
fn timed_run(kernel: &mut Kernel, start: &Barrier) -> f64 {
    kernel.touch();
    start.wait();
    let t0 = now_ns();
    kernel.run();
    (now_ns() - t0) as f64
}

/// Run the kernel on `lanes` threads at once (the calling thread and
/// `lanes - 1` helpers), as a parallel region of the program's pool does,
/// and record the slowest lane.
fn record(lanes: usize) {
    let begin = now_ns();
    let start = Barrier::new(lanes);
    let ns = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..lanes)
            .map(|_| s.spawn(|| timed_run(&mut Kernel::new(), &start)))
            .collect();
        let own = KERNEL.with(|k| timed_run(&mut k.borrow_mut(), &start));
        helpers
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .fold(own, f64::max)
    });
    let sample = Sample {
        begin,
        end: now_ns(),
        ns,
        lanes,
    };
    // A push leaves the list valid even if another holder panicked.
    SAMPLES
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(sample);
}

/// Every calibration recorded since the last call, in time order.
pub fn take() -> Vec<Sample> {
    std::mem::take(&mut *SAMPLES.lock().unwrap_or_else(PoisonError::into_inner))
}

/// Maps wall intervals to their duration at reference speed, from the
/// calibrations on one lane count.
pub struct Scale {
    samples: Vec<Sample>,
}

impl Scale {
    pub fn new(samples: &[Sample], lanes: usize) -> Scale {
        let mut samples: Vec<Sample> = samples
            .iter()
            .filter(|s| s.lanes == lanes)
            .copied()
            .collect();
        samples.sort_by_key(|s| s.begin);
        Scale { samples }
    }

    /// The mean kernel time of the calibrations just before `begin` and
    /// just after `end`, or `None` without one on either side.
    pub fn local_ns(&self, begin: u64, end: u64) -> Option<f64> {
        let after = self.samples.partition_point(|s| s.begin < end);
        let before = self.samples[..after].partition_point(|s| s.end <= begin);
        let near: Vec<f64> = [before.checked_sub(1), Some(after)]
            .into_iter()
            .flatten()
            .filter_map(|i| self.samples.get(i))
            .map(|s| s.ns)
            .collect();
        (!near.is_empty()).then(|| near.iter().sum::<f64>() / near.len() as f64)
    }

    /// Duration of `[begin, end)` at reference speed; the raw duration
    /// when no calibration is near.
    pub fn ns(&self, begin: u64, end: u64) -> f64 {
        let raw = (end - begin) as f64;
        self.local_ns(begin, end).map_or(raw, |k| raw * REF_NS / k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(begin: u64, end: u64, ns: f64, lanes: usize) -> Sample {
        Sample {
            begin,
            end,
            ns,
            lanes,
        }
    }

    #[test]
    fn scale_uses_the_calibrations_around_an_interval() {
        // Kernel times 2, 4 and 8 around two pieces, and one on other lanes.
        let samples = [
            sample(0, 2, 2.0, 2),
            sample(10, 14, 4.0, 2),
            sample(20, 22, 100.0, 1),
            sample(30, 38, 8.0, 2),
        ];
        let scale = Scale::new(&samples, 2);
        assert_eq!(scale.local_ns(2, 10), Some(3.0));
        assert_eq!(scale.local_ns(14, 30), Some(6.0));
        // Only one side: that calibration alone.
        assert_eq!(scale.local_ns(40, 50), Some(8.0));
        assert_eq!(Scale::new(&samples, 1).local_ns(30, 40), Some(100.0));
        assert_eq!(Scale::new(&[], 2).local_ns(0, 1), None);
        assert_eq!(Scale::new(&[], 2).ns(5, 9), 4.0);
        assert_eq!(scale.ns(2, 10), 8.0 * REF_NS / 3.0);
    }

    #[test]
    fn calibration_records_the_slowest_lane_when_on() {
        let _serial = crate::tests::serial();
        mark();
        assert!(take().is_empty(), "off until enabled");
        enable(2);
        mark();
        mark_one();
        enable(0);
        mark();
        let got = take();
        assert_eq!(got.iter().map(|s| s.lanes).collect::<Vec<_>>(), [2, 1]);
        assert!(got
            .iter()
            .all(|s| s.ns > 0.0 && s.ns <= (s.end - s.begin) as f64));
    }
}
