//! Two fixed kernels that measure how fast the host runs right now.
//!
//! On a shared host the speed of a CPU drifts by a third or more within
//! seconds, with no steal time to show for it: a neighbour on the same
//! physical core or memory bus slows every instruction stream. The
//! benchmark cuts each timed phase into short segments, times these
//! kernels between every two, and rescales each segment's timings to
//! the kernels' reference times, so the drift largely cancels while a
//! change to the measured program still shows in full. The kernels are
//! the benchmark's own code and never call into the program, so the
//! program's changes cannot move them.
//!
//! A served update has two parts, and the host's drift moves them
//! differently, so there are two kernels. The compute kernel follows a
//! sketch update: multiply-rotate hashing, read-modify-write of an
//! L1-resident table of floats at hashed slots, and the branchy
//! compare-and-swap of a small sort. The network kernel sends 1 KB
//! datagrams to its own loopback UDP socket and reads them back, through
//! the same kernel network stack the loopback node's TCP traffic takes.
//! The host's slowness is the geometric mean of the two kernels'
//! slowness.

use std::net::UdpSocket;
use std::time::Instant;

use crate::stats::median;

/// Nanoseconds one compute pass takes on the reference machine (a
/// 2-vCPU Intel Xeon VM at 2.1 GHz, where passes read 1.4 to 2.1 ms).
pub const REFERENCE_COMPUTE_NS: f64 = 2_000_000.0;

/// Nanoseconds one network pass takes on the reference machine (about
/// 0.3 to 0.5 ms there).
pub const REFERENCE_NET_NS: f64 = 400_000.0;

/// Passes of each kernel timed per measurement; each kernel's figure is
/// the median of its passes.
const PASSES: usize = 9;

/// Hashed table rows per compute pass.
const STEPS: u64 = 8_000;

/// Loopback datagram round trips per network pass.
const DATAGRAMS: usize = 200;

/// One compute pass; returns a value that depends on every step.
fn compute(seed: u64) -> f32 {
    let mut table = [0f32; 2048];
    let mut h = seed | 1;
    let mut acc = 0f32;
    let mut window = [0f32; 14];
    for i in 0..STEPS {
        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29) ^ i;
        for (r, w) in window.iter_mut().enumerate() {
            let slot = (h.rotate_left(r as u32 * 4) >> 53) as usize & 2047;
            table[slot] = table[slot] * 0.999 + (i & 7) as f32 * 1e-3;
            *w = table[slot];
        }
        window.sort_unstable_by(f32::total_cmp);
        acc += window[7];
    }
    acc
}

/// One network pass over `sock`, a UDP socket connected to itself.
fn network(sock: &UdpSocket) {
    let out = [7u8; 1024];
    let mut back = [0u8; 2048];
    for _ in 0..DATAGRAMS {
        sock.send(&out).expect("send a loopback datagram");
        sock.recv(&mut back).expect("receive a loopback datagram");
    }
}

/// Median nanoseconds of `PASSES` runs of `pass`.
fn time(mut pass: impl FnMut(u64)) -> f64 {
    let times = (0..PASSES as u64)
        .map(|p| {
            let t = Instant::now();
            pass(p);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(times)
}

/// One measurement: nanoseconds per compute pass and per network pass.
pub fn measure(sock: &UdpSocket) -> [f64; 2] {
    [
        time(|p| {
            std::hint::black_box(compute(std::hint::black_box(p)));
        }),
        time(|_| network(sock)),
    ]
}

/// Runs timed stretches with a yardstick measurement before the first
/// and after each one, so every stretch knows how slow the host ran
/// around it.
pub struct Pace {
    sock: UdpSocket,
    /// Every measurement so far, in order.
    pub measured: Vec<[f64; 2]>,
}

impl Pace {
    pub fn start() -> Pace {
        let sock = UdpSocket::bind("127.0.0.1:0").expect("bind a loopback UDP socket");
        sock.connect(sock.local_addr().expect("loopback socket address"))
            .expect("connect the loopback UDP socket to itself");
        let first = measure(&sock);
        Pace {
            sock,
            measured: vec![first],
        }
    }

    /// Runs `stretch`, then measures. Returns its result and the host's
    /// slowness around it, above 1 when the host ran slower than the
    /// reference: the geometric mean, over the two kernels, of the mean
    /// of the measurements on either side over the reference time.
    pub fn run<T>(&mut self, stretch: impl FnOnce() -> T) -> (T, f64) {
        let out = stretch();
        let now = measure(&self.sock);
        let before = self.measured[self.measured.len() - 1];
        let compute = (before[0] + now[0]) / 2.0 / REFERENCE_COMPUTE_NS;
        let net = (before[1] + now[1]) / 2.0 / REFERENCE_NET_NS;
        self.measured.push(now);
        (out, (compute * net).sqrt())
    }
}
