//! Host-speed calibration.
//!
//! The benchmark shares its cores with other tenants, whose load slows
//! this host's CPU-bound work by up to 1.7× for stretches of a fraction
//! of a second to minutes. A median over a run's rounds cannot take that
//! out when a whole run falls in a slow stretch, so every CPU-bound phase
//! of a round is bracketed by a fixed calibration kernel — the
//! benchmark's own code, independent of the repository's — and its time
//! is scaled by `REFERENCE_S / kernel time`. A scaled time reads as the
//! time the phase would have taken on a host on which the kernel takes
//! exactly `REFERENCE_S`; a change to the repository's code moves it as
//! it moves the raw time, while a change in host speed moves kernel and
//! phase together.
//!
//! The kernel imitates the work it calibrates — small heap allocations of
//! mixed sizes, ordered-map and hash-map updates, a bounded queue — rather
//! than a tight arithmetic loop, which the host's slow stretches slow far
//! less than they slow the simulator and the trainer.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// A round figure near the kernel's time on the reference host (a 2-core
/// KVM guest on a shared Xeon host; its median read 660–810 µs from run
/// to run), so that scaled times read close to raw ones there.
pub const REFERENCE_S: f64 = 800e-6;

/// Times the kernel is run per calibration; the fastest counts, so that a
/// preemption in the middle of one run does not.
const KERNEL_RUNS: usize = 3;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The calibration kernel: a fixed, seeded sequence of allocations and
/// container updates.
fn kernel() {
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut live: Vec<Vec<u8>> = Vec::with_capacity(257);
    for _ in 0..4_000 {
        let len = (xorshift(&mut rng) % 200) as usize + 8;
        live.push(vec![1u8; len]);
        if live.len() > 256 {
            let victim = (xorshift(&mut rng) % 256) as usize;
            live.swap_remove(victim);
        }
    }
    black_box(live.len());

    let mut ordered = BTreeMap::new();
    let mut queue: VecDeque<Box<[u64; 4]>> = VecDeque::with_capacity(65);
    let mut table: HashMap<u64, Vec<u8>> = HashMap::new();
    for i in 0..2_500u64 {
        let key = xorshift(&mut rng);
        ordered.insert(key >> 44, i);
        if ordered.len() > 512 {
            ordered.pop_first();
        }
        queue.push_back(Box::new([key, i, key ^ i, 0]));
        if queue.len() > 64 {
            black_box(queue.pop_front());
        }
        table.insert(key & 0x3ff, vec![i as u8; (key % 120) as usize + 8]);
    }
    black_box((ordered.len(), table.len()));
}

/// The kernel's time now, in seconds: the fastest of `KERNEL_RUNS` runs.
pub fn calibrate() -> f64 {
    (0..KERNEL_RUNS)
        .map(|_| {
            let start = Instant::now();
            kernel();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Calibrations at the boundaries of a run's timed phases.
#[derive(Debug)]
pub struct HostSpeed {
    last_s: f64,
    /// Every calibration made, in seconds.
    pub samples: Vec<f64>,
}

impl HostSpeed {
    pub fn new() -> Self {
        let last_s = calibrate();
        HostSpeed {
            last_s,
            samples: vec![last_s],
        }
    }

    /// Calibrates again and returns the scale for work timed since the
    /// previous calibration: `REFERENCE_S` over the mean of the two
    /// kernel times that bracket it.
    pub fn scale(&mut self) -> f64 {
        let now_s = calibrate();
        let scale = REFERENCE_S / (0.5 * (self.last_s + now_s));
        self.last_s = now_s;
        self.samples.push(now_s);
        scale
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and every thread it spawns afterwards, to the
/// first CPU it is allowed to run on, so that the fan-out worker runs on
/// the core the calibration measures. Returns that CPU, or `None` (and
/// pins nothing) if the affinity mask cannot be read or set.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc < 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64).find(|&i| mask[i / 64] >> (i % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; `one` is a readable buffer of the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}
