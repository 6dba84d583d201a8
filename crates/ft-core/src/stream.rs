//! Lazily generated message sequences.
//!
//! A [`MessageStream`] describes a message set as a *pure indexed function*
//! `j ↦ message(j)` with an exact length, instead of a materialized
//! `Vec<Message>`. That makes every stream
//!
//! * **seeded** — generators derive message `j` from `(seed, j)` alone,
//! * **restartable** — replaying the stream is just re-running the index
//!   range, so a consumer that needs a second pass re-runs the generator
//!   instead of buffering its output,
//! * **`size_hint`-exact** — [`MessageStream::iter`] reports the precise
//!   remaining length, so consumers can size flat buffers up front.
//!
//! The engines in `ft-sim`/`ft-sched` ingest streams directly into their
//! flat arenas, so at no point does a length-`m` `Vec<Message>` exist on
//! those paths; `ft-workloads` provides the lazy generators (permutations,
//! hotspots, k-relations, and datacenter patterns). `[Message]` and
//! [`MessageSet`] implement the trait too, as the trivial materialized
//! streams. The engines pull messages in chunks through
//! [`MessageStream::fill`], so a stream behind `&dyn` costs one dynamic call
//! per chunk.
//!
//! The trait is object-safe: runtime-selected workloads travel as
//! `&dyn MessageStream` (the CLI does this), while hot paths monomorphize.

use crate::message::{Message, MessageSet};

/// A restartable, exactly-sized source of messages.
///
/// Implementations must be *pure*: `message(j)` depends only on `self` and
/// `j`, so any number of passes over `0..len()` observe the same sequence.
pub trait MessageStream {
    /// Exact number of messages; every replay yields exactly this many.
    fn len(&self) -> usize;

    /// Workload family tag for telemetry (e.g. `"permutation"`,
    /// `"bursty"`, `"incast"`).
    fn family(&self) -> &'static str;

    /// The `j`-th message (`j < len()`), as a pure function of `(self, j)`.
    fn message(&self, j: usize) -> Message;

    /// Messages `start .. start + out.len()` into `out`, in order: exactly
    /// what [`Self::message`] returns for each index (`start + out.len() ≤
    /// len()`). The default is the per-message loop; a generator with a
    /// cheaper batch kernel overrides it, and a consumer that pulls chunks
    /// pays one dynamic call per chunk instead of one per message.
    fn fill(&self, start: usize, out: &mut [Message]) {
        for (j, slot) in (start..).zip(out) {
            *slot = self.message(j);
        }
    }

    /// True if the stream holds no messages.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialize the whole stream (for golden oracles and consumers that
    /// genuinely need a set).
    fn collect_set(&self) -> MessageSet {
        let mut set = MessageSet::with_capacity(self.len());
        for j in 0..self.len() {
            set.push(self.message(j));
        }
        set
    }

    /// Iterate the stream with an exact `size_hint`.
    fn iter(&self) -> StreamIter<'_, Self>
    where
        Self: Sized,
    {
        StreamIter {
            stream: self,
            next: 0,
            len: self.len(),
        }
    }
}

/// Messages per [`MessageStream::fill`] call of [`for_each_message`].
const CHUNK: usize = 256;

/// Hand `src`'s messages to `each` with their indices, in order, pulled
/// `CHUNK` at a time through [`MessageStream::fill`]: one call per chunk (a
/// dynamic one for a `dyn` stream), and the generator's batch kernel where
/// it has one. A slice source copies through the same buffer. Every arena
/// ingests through it; indices are `u32`s, as the arenas store them, so
/// `src` holds at most 2^32 messages.
#[inline]
pub fn for_each_message<S: MessageStream + ?Sized>(src: &S, mut each: impl FnMut(u32, Message)) {
    let mut buf = [Message::new(0, 0); CHUNK];
    let len = src.len();
    for start in (0..len).step_by(CHUNK) {
        let chunk = &mut buf[..CHUNK.min(len - start)];
        src.fill(start, chunk);
        for (j, &m) in (start as u32..).zip(&*chunk) {
            each(j, m);
        }
    }
}

/// Exact-size iterator over a [`MessageStream`].
pub struct StreamIter<'a, S: ?Sized> {
    stream: &'a S,
    next: usize,
    len: usize,
}

impl<S: MessageStream + ?Sized> Iterator for StreamIter<'_, S> {
    type Item = Message;

    fn next(&mut self) -> Option<Message> {
        if self.next == self.len {
            return None;
        }
        let m = self.stream.message(self.next);
        self.next += 1;
        Some(m)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.len - self.next;
        (rem, Some(rem))
    }
}

impl<S: MessageStream + ?Sized> ExactSizeIterator for StreamIter<'_, S> {}

/// A message slice is the trivial (already materialized) stream; `fill`
/// copies.
impl MessageStream for [Message] {
    fn len(&self) -> usize {
        <[Message]>::len(self)
    }

    fn family(&self) -> &'static str {
        "materialized"
    }

    fn message(&self, j: usize) -> Message {
        self[j]
    }

    fn fill(&self, start: usize, out: &mut [Message]) {
        out.copy_from_slice(&self[start..start + out.len()]);
    }
}

/// A `MessageSet` is a materialized stream too: its slice's.
impl MessageStream for MessageSet {
    fn len(&self) -> usize {
        MessageSet::len(self)
    }

    fn family(&self) -> &'static str {
        "materialized"
    }

    fn message(&self, j: usize) -> Message {
        self.as_slice()[j]
    }

    fn fill(&self, start: usize, out: &mut [Message]) {
        MessageStream::fill(self.as_slice(), start, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_set_is_a_stream() {
        let set: MessageSet = (0..5).map(|i| Message::new(i, 4 - i)).collect();
        let s: &dyn MessageStream = &set;
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
        assert_eq!(s.family(), "materialized");
        assert_eq!(s.message(2), Message::new(2, 2));
        assert_eq!(s.collect_set(), set);
    }

    #[test]
    fn iter_is_exact_and_restartable() {
        let set: MessageSet = (0..7).map(|i| Message::new(i, (i + 1) % 7)).collect();
        let it = set.iter_stream_check();
        assert_eq!(it, set.as_slice().to_vec());
        // Replay observes the same sequence.
        assert_eq!(set.iter_stream_check(), it);
    }

    trait IterCheck {
        fn iter_stream_check(&self) -> Vec<Message>;
    }
    impl IterCheck for MessageSet {
        fn iter_stream_check(&self) -> Vec<Message> {
            let mut it = MessageStream::iter(self);
            assert_eq!(it.size_hint(), (self.len(), Some(self.len())));
            assert_eq!(it.len(), MessageStream::len(self));
            let first = it.next();
            if MessageStream::is_empty(self) {
                assert!(first.is_none());
                return Vec::new();
            }
            let mut v = vec![first.unwrap()];
            v.extend(it);
            v
        }
    }
}
