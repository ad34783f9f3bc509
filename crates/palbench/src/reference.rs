//! The reference kernel: a fixed piece of host work that shares no code
//! with the program under test, timed between measurement windows and
//! before each timed set-up build.
//!
//! Other tenants of a shared host slow it by up to 40% for seconds at a
//! time, so raw host times measure the neighbours as much as the program.
//! The benchmark therefore reports every host time at the speed at which
//! this kernel takes [`NOMINAL_S`]: a window's or a build's times are
//! divided by its [`scale`], the kernel's duration just before it over
//! `NOMINAL_S`, raised to the workload's sensitivity for that kind of time
//! ([`crate::Workload::host_sensitivity`]). The kernel is made of what the
//! simulator's host work is made of, a decode-and-dispatch loop and
//! hash-map and allocator churn over about a megabyte, so a busy
//! neighbour slows it as it slows the workloads.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

/// The kernel's duration, in seconds, on the host the reported times are
/// expressed at: about its duration on an undisturbed 2-CPU 2.1 GHz
/// x86-64 host.
pub const NOMINAL_S: f64 = 0.7e-3;

/// Steps of the dispatch loop.
const DISPATCH_STEPS: u32 = 60_000;

/// Hash-map inserts. Keys span 4096 values, and each value is a buffer of
/// 64 to 1087 bytes, so the map holds about a megabyte when it is dropped.
const INSERTS: u32 = 3_000;

/// A small register machine running a fixed 12-instruction program.
fn dispatch() -> u32 {
    const PROGRAM: [(u8, usize, usize); 12] = [
        (0, 0, 1),
        (1, 1, 0),
        (2, 2, 1),
        (3, 0, 2),
        (4, 3, 0),
        (5, 3, 1),
        (1, 2, 3),
        (0, 1, 2),
        (6, 0, 3),
        (2, 3, 0),
        (4, 1, 2),
        (7, 0, 0),
    ];
    let mut mem = [0u32; 4096];
    let mut r = [1u32, 7, 13, 29];
    let mut pc = 0;
    for _ in 0..DISPATCH_STEPS {
        let (op, a, b) = PROGRAM[pc];
        match op {
            0 => r[a] = r[a].wrapping_add(r[b]),
            1 => r[a] ^= r[b].rotate_left(5),
            2 => r[a] = r[a].wrapping_mul(r[b] | 1),
            3 => mem[r[a] as usize & 4095] = r[b],
            4 => r[a] = r[a].wrapping_add(mem[r[b] as usize & 4095]),
            5 => r[a] = r[a].wrapping_sub(r[b] >> 3),
            6 if r[a] & 1 == 0 => pc = (pc + 1) % PROGRAM.len(),
            _ => {}
        }
        pc = (pc + 1) % PROGRAM.len();
    }
    black_box(mem[0]) ^ r.iter().fold(0, |acc, v| acc ^ v)
}

/// Inserts and looks up seeded keys in a map of heap buffers. The hasher's
/// keys are fixed, so every run probes the same slots.
fn churn() -> usize {
    let mut map: HashMap<u32, Vec<u8>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x = 12_345u32;
    let mut found = 0;
    for i in 0..INSERTS {
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        map.insert(x >> 20, vec![i as u8; 64 + (x as usize & 1023)]);
        found += map.get(&(x >> 21)).map_or(0, Vec::len);
    }
    black_box(found + map.len())
}

/// Runs the kernel twice and returns the shorter duration in seconds, so
/// an interrupt landing in one run does not count.
pub fn time() -> f64 {
    (0..2)
        .map(|_| {
            let t0 = Instant::now();
            black_box(dispatch());
            black_box(churn());
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// How much slower than nominal the host runs the kernel now.
pub fn scale() -> f64 {
    time() / NOMINAL_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_takes_time() {
        assert_eq!(dispatch(), dispatch());
        assert_eq!(churn(), churn());
        assert!(time() > 0.0 && scale() > 0.0);
    }
}
