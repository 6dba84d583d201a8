//! Probes of the host, not of the program: they say whether a run is
//! worth reading. All read `/proc` or the loopback device only.

use crate::consts::{LOOPBACK_ROUNDS, REF_KERNEL_ITERS};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// Peak resident set of this process (`VmHWM`), KiB. 0 where `/proc` has
/// no such line.
pub fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// CPU time (user + system) this process has used, in clock ticks. Read
/// from `/proc/self/stat`, which keeps the time of threads that already
/// exited (per-task `schedstat` does not).
pub fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the whole line, so the 12th and 13th after `)`.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let get = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    get(11) + get(12)
}

/// Microseconds per clock tick of [`cpu_ticks`]. Linux fixes `USER_HZ` at
/// 100 for every architecture it exports `/proc/<pid>/stat` on.
pub const TICK_US: u64 = 10_000;

/// `(steal, total)` jiffies of the whole machine from `/proc/stat`.
pub fn steal_and_total() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(cpu) = stat.lines().next().filter(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let f: Vec<u64> = cpu
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already counted in user/nice.
    (f.get(7).copied().unwrap_or(0), f.iter().take(8).sum())
}

/// A fixed ALU loop (≈ 0.6 ms); its p90/p10 over a run is
/// `host.ref_kernel_spread`. Returns its wall time in ns.
pub fn ref_kernel() -> u64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..REF_KERNEL_ITERS {
        x = (x ^ i).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(17);
    }
    std::hint::black_box(x);
    t.elapsed().as_nanos() as u64
}

/// Round-trip times (ns) of a `req_bytes` write answered by a `resp_bytes`
/// write over a loopback TCP pair with `TCP_NODELAY` — what the kernel
/// charges a serve request before any of the server's code runs.
pub fn loopback_rtts(req_bytes: usize, resp_bytes: usize) -> std::io::Result<Vec<u64>> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        let mut req = vec![0u8; req_bytes];
        let resp = vec![0x5Au8; resp_bytes];
        for _ in 0..LOOPBACK_ROUNDS {
            s.read_exact(&mut req)?;
            s.write_all(&resp)?;
        }
        Ok(())
    });
    let mut c = TcpStream::connect(addr)?;
    c.set_nodelay(true)?;
    let req = vec![0xA5u8; req_bytes];
    let mut resp = vec![0u8; resp_bytes];
    let mut rtts = Vec::with_capacity(LOOPBACK_ROUNDS);
    for _ in 0..LOOPBACK_ROUNDS {
        let t = Instant::now();
        c.write_all(&req)?;
        c.read_exact(&mut resp)?;
        rtts.push(t.elapsed().as_nanos() as u64);
    }
    echo.join().expect("echo thread panicked")?;
    Ok(rtts)
}
