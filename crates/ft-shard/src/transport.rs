//! The shard link: one channel transport, two ways to spawn what sits
//! behind it.
//!
//! A [`Transport`] owns one duplex link per shard and moves whole frames
//! (flat `u64` vectors, see [`crate::wire`]). A link is a pair of `mpsc`
//! queues — requests to the shard, replies multiplexed onto one shared
//! receive queue — and the two constructors differ only in who drains them:
//!
//! * [`Transport::inproc`] — each shard is a thread running the worker loop
//!   ([`crate::worker::run_channel`]) straight on its queues; what most
//!   tests, the CLI default and `benchmark/`'s `shard_run` use.
//! * [`Transport::pipe`] — each shard is a child *process* (`ftsim
//!   shard-worker`) speaking little-endian frames over stdin/stdout. A
//!   writer thread per child drains the request queue into the pipe, so
//!   pipe back-pressure never blocks the coordinator in `send`; a reader
//!   thread per child feeds the shared receive queue, so receives can time
//!   out. This is the only link that crosses a process boundary, and the
//!   one frame-level fault injection ([`crate::fault`]) is meant to harden.
//!
//! One `Drop` reaps both: close the request queues, kill and wait the
//! children (none in-process), join the threads — a wedged worker cannot
//! outlive the coordinator.
//!
//! Receives are *any-shard*: the coordinator reacts to whichever worker
//! answers first — the enabling primitive for the overlapped barrier. Every
//! receive is bounded by a timeout (`Ok(None)`, not an error: the
//! coordinator's retry loop, not the transport, decides what a missed
//! deadline means); an `Err` says why the link is gone. Each frame hand-off
//! costs one `Vec` (the queue owns what it carries); nothing else on the
//! link allocates per frame, per cycle or per message
//! (`tests/alloc_steady.rs`).

use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

/// One duplex frame link per shard, multiplexed onto a single receive
/// queue.
pub struct Transport {
    to_shard: Vec<Sender<Vec<u64>>>,
    from_shards: Receiver<(usize, Vec<u64>)>,
    /// Worker threads (in-process) or pipe writer + reader threads.
    threads: Vec<JoinHandle<()>>,
    /// Worker processes; empty in-process.
    children: Vec<Child>,
    name: &'static str,
}

impl Transport {
    /// A transport with no links yet, and the reply sender its shards clone.
    /// Links are pushed as they come up, so a constructor that fails half
    /// way returns through `Drop` and leaves nothing running.
    fn unlinked(name: &'static str) -> (Self, Sender<(usize, Vec<u64>)>) {
        let (reply_tx, from_shards) = mpsc::channel();
        let t = Transport {
            to_shard: Vec::new(),
            from_shards,
            threads: Vec::new(),
            children: Vec::new(),
            name,
        };
        (t, reply_tx)
    }

    fn spawn_thread(
        &mut self,
        name: String,
        body: impl FnOnce() + Send + 'static,
    ) -> Result<(), String> {
        let spawned = std::thread::Builder::new().name(name.clone()).spawn(body);
        self.threads
            .push(spawned.map_err(|e| format!("spawn thread {name}: {e}"))?);
        Ok(())
    }

    /// Spawn `shards` worker threads running the standard worker loop.
    pub fn inproc(shards: usize) -> Result<Self, String> {
        let (mut t, reply_tx) = Transport::unlinked("inproc");
        for s in 0..shards {
            let (req_tx, req_rx) = mpsc::channel();
            let tx = reply_tx.clone();
            t.spawn_thread(format!("ft-shard-worker-{s}"), move || {
                crate::worker::run_channel(s, req_rx, tx)
            })?;
            t.to_shard.push(req_tx);
        }
        Ok(t)
    }

    /// Spawn one worker process per shard: `cmd[0]` is the executable,
    /// `cmd[1..]` its arguments (typically `[ftsim, "shard-worker"]`).
    pub fn pipe(cmd: &[String], shards: usize) -> Result<Self, String> {
        let Some((exe, args)) = cmd.split_first() else {
            return Err("empty worker command".into());
        };
        let (mut t, reply_tx) = Transport::unlinked("pipe");
        for s in 0..shards {
            let mut child = Command::new(exe)
                .args(args)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| format!("spawn {exe}: {e}"))?;
            // Cannot fail: both were requested as `Stdio::piped()` above.
            let mut child_in = child.stdin.take().expect("piped stdin");
            let mut child_out = child.stdout.take().expect("piped stdout");
            t.children.push(child);
            let (req_tx, req_rx) = mpsc::channel::<Vec<u64>>();
            // The writer thread absorbs pipe back-pressure: the
            // coordinator's `send` only enqueues, so a slow or wedged
            // child can never stall the event loop mid-cycle.
            t.spawn_thread(format!("ft-shard-pipe-writer-{s}"), move || {
                let mut bytes = Vec::new();
                while let Ok(frame) = req_rx.recv() {
                    if crate::wire::write_frame_buf(&mut child_in, &frame, &mut bytes).is_err() {
                        break;
                    }
                }
                // Dropping `child_in` here closes the child's stdin: a
                // clean EOF at the next frame boundary.
            })?;
            let tx = reply_tx.clone();
            t.spawn_thread(format!("ft-shard-pipe-reader-{s}"), move || {
                // Exits on EOF, stream error, or the receiver side hanging
                // up — all of which end the link.
                while let Ok(Some(frame)) = crate::wire::read_frame(&mut child_out) {
                    if tx.send((s, frame)).is_err() {
                        break;
                    }
                }
            })?;
            t.to_shard.push(req_tx);
        }
        Ok(t)
    }

    /// Deliver a frame to shard `shard`. The queue takes its own copy; the
    /// caller keeps (and reuses) the buffer.
    pub fn send(&mut self, shard: usize, frame: &[u64]) -> Result<(), String> {
        self.to_shard[shard]
            .send(frame.to_vec())
            .map_err(|_| format!("link closed: {} worker {shard} exited", self.name))
    }

    /// Next frame from *any* shard, moved into `buf`; returns the shard it
    /// came from, or `None` when `timeout` passed with nothing to read.
    pub fn recv_any(
        &mut self,
        timeout: Duration,
        buf: &mut Vec<u64>,
    ) -> Result<Option<usize>, String> {
        match self.from_shards.recv_timeout(timeout) {
            Ok((shard, frame)) => {
                *buf = frame;
                Ok(Some(shard))
            }
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => {
                Err(format!("link closed: every {} worker hung up", self.name))
            }
        }
    }

    /// Human-readable transport name for reports (`"inproc"` / `"pipe"`).
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Drop for Transport {
    fn drop(&mut self) {
        // Closing the request queues ends every in-process worker loop and
        // lets each pipe writer drain and close its child's stdin; the kill
        // guarantees no orphan (and no writer blocked on a full pipe to a
        // dead child) survives. After that no join can block: workers only
        // sleep for bounded fault delays, readers see EOF.
        self.to_shard.clear();
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inproc_transport_echoes_through_worker() {
        // A real worker behind the queues: INIT must come back as InitAck,
        // tagged with the link it was sent on.
        use crate::fault::FaultPlan;
        use crate::proto::InitMsg;
        use crate::wire::{self, FrameKind};
        let mut t = Transport::inproc(2).unwrap();
        assert_eq!(t.name(), "inproc");
        let init = InitMsg {
            n: 16,
            boundary: 1,
            shard: 1,
            proto: wire::PROTO_VERSION,
            sim: ft_sim::SimConfig::default(),
            plan: FaultPlan::none(),
            profile: ft_core::CapacityProfile::FullDoubling,
        };
        let frame = wire::encode(FrameKind::Init, 1, 0, &init.encode());
        t.send(1, &frame).unwrap();
        let mut buf = Vec::new();
        let s = t.recv_any(Duration::from_secs(5), &mut buf).unwrap();
        assert_eq!(s, Some(1));
        let f = wire::decode(&buf).unwrap();
        assert_eq!(f.kind, FrameKind::InitAck);
        assert_eq!(f.shard, 1);
        // Nothing else is in flight: a bounded wait, not a hang.
        let idle = t.recv_any(Duration::from_millis(5), &mut buf);
        assert_eq!(idle, Ok(None));
    }
}
