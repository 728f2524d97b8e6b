//! Shared world state: the matching engine and the registry of pre-matched
//! persistent channels, expressed against a [`Transport`] fabric.
//!
//! `WorldState` owns the *semantics* — signature matching, the channel
//! registry, the mixed plain/persistent-traffic diagnostics, failed-epoch
//! draining — and delegates the *mechanics* of moving bytes (mailboxes,
//! channel storage, parking/wakeups, death detection) to an
//! `Arc<dyn Transport>`: the in-process [`ThreadTransport`] by default, or
//! the cross-process shm fabric ([`crate::transport::shm::ShmTransport`]).

use crate::elem::elem_bytes;
use crate::stall::{RankWait, StallReport};
use crate::transport::shm::ring::ShmChan;
use crate::transport::sock::link::{Link, K_CHAN};
use crate::transport::{
    assert_pod, bytes_of, vec_extend_bytes, ChanFabric, FaultOp, ShmChanRaw, SockChanWire,
    Transport,
};
use locality::Topology;
use parking_lot::{Condvar, Mutex};
use perfmodel::CostModel;
use std::any::Any;
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A plain-send payload, packaged the way the world's transport requires
/// (see [`crate::transport::PayloadMode`]).
pub(crate) enum Payload {
    /// In-process: the `Vec<T>` itself behind a type-erased box. Zero
    /// serialization; any `Elem` type travels.
    Typed {
        data: Box<dyn Any + Send>,
        type_name: &'static str,
    },
    /// Cross-process: raw little-endian bytes plus the element type's name
    /// (carried on the wire, so mismatch diagnostics survive the boundary).
    /// Plain-old-data element types only.
    Bytes { data: Vec<u8>, type_name: String },
}

impl Payload {
    /// Package a payload for the in-process fabric.
    pub fn typed<T: Clone + Send + 'static>(data: Vec<T>) -> Self {
        Payload::Typed {
            data: Box::new(data),
            type_name: std::any::type_name::<T>(),
        }
    }

    /// Package a payload for a byte fabric (serializes now, at the send
    /// boundary). Panics for element types that cannot cross as raw bytes.
    pub fn bytes_from<T>(data: &[T]) -> Self {
        assert_pod::<T>("plain send over the shm transport");
        Payload::Bytes {
            data: bytes_of(data).to_vec(),
            type_name: std::any::type_name::<T>().to_string(),
        }
    }

    /// Recover the typed payload; `Err(sent_type_name)` when the receiver's
    /// element type does not match what the sender packaged.
    pub fn take<T: Clone + Send + 'static>(self) -> Result<Vec<T>, String> {
        match self {
            Payload::Typed { data, type_name } => data
                .downcast::<Vec<T>>()
                .map(|b| *b)
                .map_err(|_| type_name.to_string()),
            Payload::Bytes { data, type_name } => {
                if type_name != std::any::type_name::<T>() {
                    return Err(type_name);
                }
                assert_pod::<T>("plain receive over the shm transport");
                let mut out = Vec::new();
                vec_extend_bytes(&mut out, &data, &[]);
                Ok(out)
            }
        }
    }
}

/// A message in flight.
pub(crate) struct Envelope {
    /// Communicator context the message belongs to.
    pub ctx_id: u64,
    /// Source rank *within that communicator*.
    pub src: usize,
    pub tag: u64,
    /// Modeled arrival time at the destination (0 when unmodeled).
    pub arrival: f64,
    pub payload: Payload,
}

/// Unexpected-message queue of one rank (the thread transport's storage).
#[derive(Default)]
pub(crate) struct Mailbox {
    pub queue: Mutex<VecDeque<Envelope>>,
    pub cv: Condvar,
}

/// Modeled-time configuration shared by all ranks.
pub(crate) struct ModelCtx {
    pub model: Arc<dyn CostModel>,
    pub topo: Topology,
}

/// Signature of a pre-matched persistent channel:
/// `(context id, src comm rank, dst comm rank, tag)`.
pub(crate) type ChanKey = (u64, usize, usize, u64);

/// Registry slot: element type name (for mismatch diagnostics), the
/// type-erased channel, an untyped pending-message probe — so the plain
/// mailbox path can detect mixed traffic without knowing `T` (for shm
/// channels the count lives in the shared ring, hence a closure rather
/// than a bare counter) — and a typed drain hook so the registry can
/// discard undelivered payloads (after a panicked pool epoch) without
/// knowing `T` either.
#[derive(Clone)]
struct ChanSlot {
    type_name: &'static str,
    chan: Arc<dyn Any + Send + Sync>,
    pending: Arc<dyn Fn() -> usize + Send + Sync>,
    drain: Arc<dyn Fn() + Send + Sync>,
}

/// The park-point of one rank's blocked `wait_any` on the thread fabric: a
/// seq counter bumped (with a wake) by every deposit into a channel the
/// rank watches.
///
/// One `WaitSet` exists per world rank. A receiver that wants to block on
/// a *set* of channels attaches its rank's wait set to each of them and
/// parks here instead of on any single channel's condvar — so the first
/// arrival on **any** watched channel wakes it, and receives complete in
/// delivery order rather than the order the channels were initialized in.
/// (The shm fabric's counterpart is the per-rank `ws_seq` futex word plus
/// each ring's watcher slot.)
pub(crate) struct WaitSet {
    /// Deposit generation: bumped under the lock by every push into a
    /// watched channel. The parking protocol re-reads it to close the
    /// scan-then-park race (a push between the scan and the park bumps the
    /// generation, so the park returns immediately).
    seq: Mutex<u64>,
    cv: Condvar,
}

impl WaitSet {
    pub(crate) fn new() -> Self {
        Self {
            seq: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    /// Current deposit generation. Read BEFORE scanning the channel set.
    pub(crate) fn generation(&self) -> u64 {
        *self.seq.lock()
    }

    /// Record one deposit and wake any parked receiver.
    pub(crate) fn notify(&self) {
        *self.seq.lock() += 1;
        self.cv.notify_all();
    }

    /// Park until the generation moves past `seen`, invoking `stall_probe`
    /// periodically while blocked (same contract as [`Channel::pop_with`]).
    pub(crate) fn park_past(&self, seen: u64, stall_probe: impl Fn()) {
        let mut seq = self.seq.lock();
        while *seq == seen {
            if self
                .cv
                .wait_for(
                    &mut seq,
                    std::time::Duration::from_millis(crate::stall::stall_ms()),
                )
                .timed_out()
            {
                stall_probe();
            }
        }
    }
}

/// Type-erased handle to one persistent channel, for completion-driven
/// receives over a **set** of channels ([`crate::RankCtx::poll_any`] /
/// [`crate::RankCtx::wait_any`]). Cloneable and independent of the
/// channel's element type, so one wait set can mix channels of different
/// datatypes (e.g. every receive of a whole collective batch).
///
/// Obtain one from the receive half that owns the channel
/// ([`crate::RecvChan::chan_id`], [`crate::PrecvReq::pending_chan_ids`]).
#[derive(Clone)]
pub struct ChanId {
    /// The channel's signature, for blocked-receive diagnostics (the
    /// mixed plain/persistent-traffic probe).
    pub(crate) key: ChanKey,
    imp: ChanIdImp,
}

#[derive(Clone)]
enum ChanIdImp {
    /// Thread fabric: the channel's lock-free pending counter (the poll
    /// fast path) and its watcher slot for [`WaitSet`] routing.
    Thread {
        pending: Arc<AtomicUsize>,
        watcher: Arc<Mutex<Option<Arc<WaitSet>>>>,
    },
    /// Shm fabric: the ring itself — its message count is the cross-process
    /// poll fast path, its watcher word routes deposit wakes.
    Shm(ShmChanRaw),
}

impl ChanId {
    /// Would a non-blocking pop on this channel succeed right now?
    pub fn ready(&self) -> bool {
        match &self.imp {
            ChanIdImp::Thread { pending, .. } => pending.load(Ordering::Relaxed) > 0,
            ChanIdImp::Shm(raw) => raw.ready(),
        }
    }

    /// Route this channel's deposit wakes to `ws` (thread fabric; see
    /// [`crate::transport::thread::ThreadTransport`]).
    pub(crate) fn attach(&self, ws: &Arc<WaitSet>) {
        let ChanIdImp::Thread { watcher, .. } = &self.imp else {
            unreachable!("WaitSet attach on a non-thread channel");
        };
        let mut watcher = watcher.lock();
        // idempotent for the common case (a rank re-parking on the same
        // channel); a channel has a single receiver, so at most one wait
        // set is ever interested
        if watcher.as_ref().is_none_or(|w| !Arc::ptr_eq(w, ws)) {
            *watcher = Some(Arc::clone(ws));
        }
    }

    /// Undo [`ChanId::attach`] once the park is over, so senders stop
    /// paying the watcher wake on every subsequent deposit (channels — and
    /// their watcher slots — live as long as the warm world).
    pub(crate) fn detach(&self, ws: &Arc<WaitSet>) {
        let ChanIdImp::Thread { watcher, .. } = &self.imp else {
            unreachable!("WaitSet detach on a non-thread channel");
        };
        let mut watcher = watcher.lock();
        if watcher.as_ref().is_some_and(|w| Arc::ptr_eq(w, ws)) {
            *watcher = None;
        }
    }

    /// Route this channel's deposit wakes to world rank `rank`'s futex
    /// park point (shm fabric; see
    /// [`crate::transport::shm::ShmTransport`]).
    pub(crate) fn watch(&self, rank: usize) {
        let ChanIdImp::Shm(raw) = &self.imp else {
            unreachable!("futex watch on a non-shm channel");
        };
        raw.set_watcher(rank);
    }

    /// Undo [`ChanId::watch`] once the park is over.
    pub(crate) fn unwatch(&self, rank: usize) {
        let ChanIdImp::Shm(raw) = &self.imp else {
            unreachable!("futex unwatch on a non-shm channel");
        };
        raw.clear_watcher(rank);
    }
}

/// A pre-matched persistent channel: the rendezvous a `send_init` /
/// `recv_init` pair shares, created once at registration time.
///
/// Every iteration's `start`/`wait` goes straight through this slot
/// instead of boxing a fresh `Vec` behind `dyn Any` and linearly scanning
/// the destination's mutexed mailbox. Payload buffers are recycled, so the
/// steady-state iteration allocates nothing. FIFO delivery preserves
/// buffered-send semantics (a sender may run several iterations ahead) and
/// MPI's non-overtaking order for equal signatures.
///
/// The storage is the world's transport's business: a condvar-guarded
/// in-process queue ([`ThreadChan`]) or an SPSC byte ring inside the
/// shared segment ([`ShmChan`]). The API is identical either way.
pub(crate) struct Channel<T> {
    key: ChanKey,
    imp: ChanImp<T>,
}

enum ChanImp<T> {
    Thread(ThreadChan<T>),
    Shm(ShmChan<T>),
    Sock(SockChan<T>),
}

/// Socket-fabric channel body. The receive side is an ordinary in-process
/// [`ThreadChan`] fed by the link reader thread (via the transport's
/// deliver hook); the send side serializes each payload into a `K_CHAN`
/// frame and hands it to the peer's [`Link`], which owns sequencing,
/// acknowledgement, and replay-on-reconnect. A channel whose two endpoints
/// live in the same process (`route: None`) skips the wire entirely and
/// pushes straight into the local queue — byte-identical semantics, no
/// serialization round trip.
pub(crate) struct SockChan<T> {
    local: Arc<ThreadChan<T>>,
    key: ChanKey,
    route: Option<Arc<Link>>,
    /// Recycled send-side staging buffers (typed payload + frame image),
    /// mirroring the receive side's spare pool so steady-state sends
    /// allocate nothing.
    scratch: Mutex<SockScratch<T>>,
}

/// Spare typed-payload and wire-frame buffers of a [`SockChan`].
type SockScratch<T> = (Vec<Vec<T>>, Vec<Vec<u8>>);

impl<T: Clone + Send + 'static> SockChan<T> {
    fn new(key: ChanKey, route: Option<Arc<Link>>) -> Self {
        Self {
            local: Arc::new(ThreadChan::new()),
            key,
            route,
            scratch: Mutex::new((Vec::new(), Vec::new())),
        }
    }

    fn push_with(&self, arrival: f64, fill: impl FnOnce(&mut Vec<T>)) {
        let Some(link) = &self.route else {
            return self.local.push_with(arrival, fill);
        };
        // Stage the payload, then serialize it into a K_CHAN frame body:
        // [ctx u64][src u64][dst u64][tag u64][arrival f64-bits u64] + data.
        let (mut vals, mut body) = {
            let mut sc = self.scratch.lock();
            (
                sc.0.pop().unwrap_or_default(),
                sc.1.pop().unwrap_or_default(),
            )
        };
        vals.clear();
        fill(&mut vals);
        body.clear();
        let (ctx_id, src, dst, tag) = self.key;
        body.extend_from_slice(&ctx_id.to_le_bytes());
        body.extend_from_slice(&(src as u64).to_le_bytes());
        body.extend_from_slice(&(dst as u64).to_le_bytes());
        body.extend_from_slice(&tag.to_le_bytes());
        body.extend_from_slice(&arrival.to_bits().to_le_bytes());
        body.extend_from_slice(bytes_of(&vals));
        link.send_frame(K_CHAN, &body);
        let mut sc = self.scratch.lock();
        sc.0.push(vals);
        sc.1.push(body);
    }
}

/// The in-process channel body: a flag (non-empty `pending`) plus a
/// condvar, payloads moved as typed `Vec<T>`s.
pub(crate) struct ThreadChan<T> {
    state: Mutex<ChanState<T>>,
    cv: Condvar,
    /// Pending-message count mirrored outside the typed state so poll
    /// paths can probe it lock-free.
    pending_count: Arc<AtomicUsize>,
    /// The receiving rank's [`WaitSet`], once it has parked on a set
    /// containing this channel (see [`ChanId::attach`]).
    watcher: Arc<Mutex<Option<Arc<WaitSet>>>>,
}

struct ChanState<T> {
    /// Delivered-but-unconsumed payloads with their modeled arrival times.
    pending: VecDeque<(Vec<T>, f64)>,
    /// Consumed payload buffers, reused by the next send.
    spare: Vec<Vec<T>>,
}

impl<T: Clone + Send + 'static> ThreadChan<T> {
    fn new() -> Self {
        Self {
            state: Mutex::new(ChanState {
                pending: VecDeque::new(),
                spare: Vec::new(),
            }),
            cv: Condvar::new(),
            pending_count: Arc::new(AtomicUsize::new(0)),
            watcher: Arc::new(Mutex::new(None)),
        }
    }

    fn push_with(&self, arrival: f64, fill: impl FnOnce(&mut Vec<T>)) {
        let mut buf = self.state.lock().spare.pop().unwrap_or_default();
        buf.clear();
        fill(&mut buf);
        let mut st = self.state.lock();
        st.pending.push_back((buf, arrival));
        self.pending_count.fetch_add(1, Ordering::Relaxed);
        self.cv.notify_all();
        drop(st);
        // wake a receiver parked on a channel SET containing this channel
        // (no-op — one uncontended lock — until the receiver first parks)
        if let Some(ws) = self.watcher.lock().as_ref() {
            ws.notify();
        }
    }

    fn wait_nonempty(&self, stall_probe: impl Fn()) {
        // same yield-spin rationale as pop_with
        for _ in 0..24 {
            if self.pending_count.load(Ordering::Relaxed) > 0 {
                return;
            }
            std::thread::yield_now();
        }
        let mut st = self.state.lock();
        while st.pending.is_empty() {
            if self
                .cv
                .wait_for(
                    &mut st,
                    std::time::Duration::from_millis(crate::stall::stall_ms()),
                )
                .timed_out()
            {
                stall_probe();
            }
        }
    }

    fn try_pop(&self) -> Option<(Vec<T>, f64)> {
        // lock-free empty probe first: `test` loops call this on channels
        // that usually have nothing yet
        if self.pending_count.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let msg = self.state.lock().pending.pop_front()?;
        self.pending_count.fetch_sub(1, Ordering::Relaxed);
        Some(msg)
    }

    fn pop_with(&self, stall_probe: impl Fn()) -> (Vec<T>, f64) {
        // Yield-spin before parking: in the steady state the matching send
        // is usually a runnable peer away, so cycling the run queue a few
        // times picks the message up for the cost of a sched_yield instead
        // of a futex park + wake round trip (which dominates per-message
        // latency on oversubscribed hosts). The empty-channel probe is the
        // lock-free pending counter, so spinning adds no mutex traffic on
        // the path the sender needs. Bounded, so a genuinely absent sender
        // still lands in the blocking wait below.
        for _ in 0..24 {
            if self.pending_count.load(Ordering::Relaxed) > 0 {
                let mut st = self.state.lock();
                if let Some(msg) = st.pending.pop_front() {
                    self.pending_count.fetch_sub(1, Ordering::Relaxed);
                    return msg;
                }
            }
            std::thread::yield_now();
        }
        let mut st = self.state.lock();
        while st.pending.is_empty() {
            if self
                .cv
                .wait_for(
                    &mut st,
                    std::time::Duration::from_millis(crate::stall::stall_ms()),
                )
                .timed_out()
            {
                stall_probe();
            }
        }
        let msg = st.pending.pop_front().expect("non-empty after wait");
        self.pending_count.fetch_sub(1, Ordering::Relaxed);
        msg
    }

    fn recycle(&self, buf: Vec<T>) {
        self.state.lock().spare.push(buf);
    }

    fn drain_pending(&self) {
        let mut st = self.state.lock();
        while let Some((buf, _)) = st.pending.pop_front() {
            self.pending_count.fetch_sub(1, Ordering::Relaxed);
            st.spare.push(buf);
        }
    }

    fn ready(&self) -> bool {
        !self.state.lock().pending.is_empty()
    }
}

impl<T: Clone + Send + 'static> Channel<T> {
    fn thread(key: ChanKey) -> Self {
        Self {
            key,
            imp: ChanImp::Thread(ThreadChan::new()),
        }
    }

    fn shm(key: ChanKey, raw: ShmChanRaw) -> Self {
        Self {
            key,
            imp: ChanImp::Shm(ShmChan::new(raw)),
        }
    }

    /// Socket-fabric channel: a local [`ThreadChan`] receive queue plus an
    /// optional wire route. If this process hosts the receiving rank, hook
    /// the transport's deliver table so the link reader thread deserializes
    /// arriving `K_CHAN` frames straight into the local queue.
    fn sock(key: ChanKey, wire: SockChanWire) -> Self {
        assert_pod::<T>("persistent channel over the sock transport");
        let chan = SockChan::<T>::new(key, wire.route);
        if let Some(t) = wire.register {
            let local = Arc::clone(&chan.local);
            t.register_deliver(
                key,
                Arc::new(move |arrival, bytes| {
                    local.push_with(arrival, |buf| vec_extend_bytes(buf, bytes, &[]));
                }),
            );
        }
        Self {
            key,
            imp: ChanImp::Sock(chan),
        }
    }

    /// Type-erased handle for set-polling this channel (see [`ChanId`]).
    pub fn id(&self) -> ChanId {
        let imp = match &self.imp {
            ChanImp::Thread(c) => ChanIdImp::Thread {
                pending: Arc::clone(&c.pending_count),
                watcher: Arc::clone(&c.watcher),
            },
            ChanImp::Shm(c) => ChanIdImp::Shm(c.raw().clone()),
            // the sock receive queue is an in-process ThreadChan, so the
            // thread fabric's poll/park machinery applies verbatim
            ChanImp::Sock(c) => ChanIdImp::Thread {
                pending: Arc::clone(&c.local.pending_count),
                watcher: Arc::clone(&c.local.watcher),
            },
        };
        ChanId { key: self.key, imp }
    }

    /// Deposit one message (buffered semantics: a sender may run many
    /// iterations ahead; the shm ring bounds that depth by its capacity).
    pub fn push(&self, data: &[T], arrival: f64) {
        self.push_with(arrival, |buf| buf.extend_from_slice(data));
    }

    /// Deposit one message by filling the channel's recycled payload buffer
    /// directly — the zero-copy send path. `fill` receives a cleared spare
    /// buffer and writes the payload into it, so senders gather values
    /// straight into the wire buffer instead of staging them in their own
    /// window first. The channel lock is not held while `fill` runs.
    pub fn push_with(&self, arrival: f64, fill: impl FnOnce(&mut Vec<T>)) {
        match &self.imp {
            ChanImp::Thread(c) => c.push_with(arrival, fill),
            ChanImp::Shm(c) => c.push_with(arrival, fill),
            ChanImp::Sock(c) => c.push_with(arrival, fill),
        }
    }

    /// Block until a message is available **without consuming it**,
    /// invoking `stall_probe` periodically while blocked (same contract as
    /// [`Channel::pop_with`]). The completion-driven `wait` parks here on
    /// one *necessary* channel between `test` rounds: cheaper than the
    /// set-park ([`WorldState::wait_any`]) when every pending receive must
    /// complete anyway, because nothing attaches and senders pay no wake.
    pub fn wait_nonempty(&self, stall_probe: impl Fn()) {
        match &self.imp {
            ChanImp::Thread(c) => c.wait_nonempty(stall_probe),
            ChanImp::Shm(c) => c.wait_nonempty(stall_probe),
            ChanImp::Sock(c) => c.local.wait_nonempty(stall_probe),
        }
    }

    /// Non-blocking [`Channel::pop_with`]: take the next message if one has
    /// been delivered, `None` otherwise. The completion-driven receive path
    /// (`test`/`wait_any`) drains arrivals through this.
    pub fn try_pop(&self) -> Option<(Vec<T>, f64)> {
        match &self.imp {
            ChanImp::Thread(c) => c.try_pop(),
            ChanImp::Shm(c) => c.try_pop(),
            ChanImp::Sock(c) => c.local.try_pop(),
        }
    }

    /// Block until a message is available and take it off the queue,
    /// invoking `stall_probe` periodically while blocked.
    ///
    /// Deliberately hands the payload buffer out instead of copying into a
    /// caller-provided slice: the receiver must NOT hold its destination
    /// buffer's lock while blocked here (another rank's send may need that
    /// buffer to make progress). Copy after popping, then hand the buffer
    /// back with [`Channel::recycle`]. The receive paths use the probe to
    /// turn an otherwise silent hang — e.g. a plain `send` aimed at a
    /// persistent receive, which lands in the mailbox this channel
    /// bypasses — into a loud panic.
    pub fn pop_with(&self, stall_probe: impl Fn()) -> (Vec<T>, f64) {
        match &self.imp {
            ChanImp::Thread(c) => c.pop_with(stall_probe),
            ChanImp::Shm(c) => c.pop_with(stall_probe),
            ChanImp::Sock(c) => c.local.pop_with(stall_probe),
        }
    }

    /// Return a consumed payload buffer for reuse by the next send.
    pub fn recycle(&self, buf: Vec<T>) {
        match &self.imp {
            ChanImp::Thread(c) => c.recycle(buf),
            ChanImp::Shm(c) => c.recycle(buf),
            ChanImp::Sock(c) => c.local.recycle(buf),
        }
    }

    /// Discard every undelivered payload (buffers go back to the spare
    /// pool). Used to reset a warm world after a panicked epoch.
    pub fn drain_pending(&self) {
        match &self.imp {
            ChanImp::Thread(c) => c.drain_pending(),
            ChanImp::Shm(c) => c.drain_pending(),
            ChanImp::Sock(c) => c.local.drain_pending(),
        }
    }

    /// Would [`Channel::pop_with`] complete without blocking?
    pub fn ready(&self) -> bool {
        match &self.imp {
            ChanImp::Thread(c) => c.ready(),
            ChanImp::Shm(c) => c.ready(),
            ChanImp::Sock(c) => c.local.ready(),
        }
    }

    /// Delivered-but-unconsumed message count — the untyped mixed-traffic
    /// probe ([`WorldState::channel_pending`]).
    fn pending_len(&self) -> usize {
        match &self.imp {
            ChanImp::Thread(c) => c.pending_count.load(Ordering::Relaxed),
            ChanImp::Shm(c) => c.raw().msg_count(),
            ChanImp::Sock(c) => c.local.pending_count.load(Ordering::Relaxed),
        }
    }

    /// Signature of this channel, for receive-side diagnostics.
    pub fn key(&self) -> ChanKey {
        self.key
    }
}

/// A held lock over the world's persistent-channel registry: every
/// signature resolved through it shares one lock acquisition, so
/// registering a whole collective — or a whole batch of collectives
/// ([`mpi-advance`'s `NeighborBatch`]) — is a single pass over the
/// registry instead of one contended lock round trip per message.
///
/// Obtain one with [`crate::RankCtx::chan_registrar`]; the registration
/// methods (`send_chan_init`, `recv_init`, `psend_init_parts`, …) mirror
/// the [`crate::RankCtx`] ones. Registration never blocks on traffic, so
/// holding the registry lock across a batch is deadlock-free — but do not
/// call `start`/`wait` (or any `RankCtx` registration method, which takes
/// the same lock) while a registrar is alive.
pub struct ChanRegistrar<'a> {
    guard: parking_lot::MutexGuard<'a, HashMap<ChanKey, ChanSlot>>,
    transport: &'a Arc<dyn Transport>,
}

impl ChanRegistrar<'_> {
    /// Get-or-create the persistent channel for `key` under the held lock.
    /// `len_hint` is the registered per-message element count, which sizes
    /// the channel's wire buffers on fabrics that must allocate them up
    /// front (the shm rings); 0 falls back to the fabric minimum.
    /// `dst_world` is the receiving rank's world rank — the routing
    /// coordinate fabrics with per-peer wires (the sock links) key on.
    pub(crate) fn channel_sized<T: Clone + Send + 'static>(
        &mut self,
        key: ChanKey,
        dst_world: usize,
        len_hint: usize,
    ) -> Arc<Channel<T>> {
        WorldState::channel_in(&mut self.guard, self.transport, key, dst_world, len_hint)
    }
}

/// State shared by every rank of a world.
pub(crate) struct WorldState {
    pub n_ranks: usize,
    pub model: Option<ModelCtx>,
    /// The fabric this world moves bytes over.
    transport: Arc<dyn Transport>,
    /// Pre-matched persistent channels, keyed by signature. Entries live
    /// as long as the world (like unmatched mailbox envelopes): the
    /// simulator has no `MPI_Request_free` counterpart, so nothing is
    /// ever unregistered. A pooled world ([`crate::WorldPool`]) keeps its
    /// `WorldState` across epochs, so re-registering the same signature
    /// re-attaches to the (drained) channel — re-init on a warm world is
    /// a lookup, not a rendezvous. A solve service leans on exactly that:
    /// a finished job's `Comm::dup_for` context goes back to its plan's
    /// free list and the next tenant of that shape re-attaches to it, so
    /// on the fault-free path this map stops growing once every shape is
    /// warm. Contexts of failed jobs and of evicted plans are retired,
    /// not reused, and their channels stay here until `Comm::free`
    /// exists (ROADMAP item 1).
    channels: Mutex<HashMap<ChanKey, ChanSlot>>,
    /// Per-rank scan rotor for [`WorldState::poll_any`] /
    /// [`WorldState::wait_any`]: each call starts its readiness scan one
    /// position further, so a permanently-hot low-index channel cannot
    /// starve the rest of the set.
    rotors: Vec<AtomicUsize>,
    /// What each locally-hosted rank is currently blocked on, registered
    /// lazily by [`WaitGuard`] once a wait survives its first stall probe.
    /// The raw material of [`WorldState::stall_report`].
    parked: Vec<Mutex<Option<ParkInfo>>>,
    /// Epoch counter mirrored from the pool / proc-world driver, so stall
    /// reports can say *which* epoch wedged (0 for one-shot worlds).
    epoch: AtomicU64,
    /// Hard bound on any single blocked wait, in milliseconds
    /// (`MPISIM_DEADLINE_MS`, or a [`crate::FaultPlan::deadline_ms`]
    /// override). `None` = block indefinitely.
    deadline_ms: Option<u64>,
    /// Which locally-hosted ranks have absorbed the current epoch's
    /// rank-death marker ([`crate::RankCtx::absorb_rank_failure`]).
    /// Absorption is **per rank**: the transport flag itself stays
    /// raised until the next epoch, so a rank that absorbs a tenant's
    /// death cannot steal the abort from a peer still blocked inside a
    /// synchronous wait on the dead tenant's traffic.
    absorbed_failure: Vec<AtomicBool>,
}

/// One registered blocked wait (see [`WorldState::parked`]).
struct ParkInfo {
    kind: &'static str,
    chans: Vec<ChanKey>,
    since: Instant,
}

/// What a [`WaitGuard`] is parked on — borrowed from the caller so guard
/// creation allocates nothing; signatures are materialized only if the
/// wait actually stalls.
pub(crate) enum WaitChans<'a> {
    Keys(&'a [ChanKey]),
    Ids(&'a [ChanId]),
}

/// Deadline + forensics guard around one blocked wait. Created at wait
/// entry, ticked from the transport's stall probe, cleared on drop.
///
/// `tick` upgrades the stall probe from a liveness hack into a deadlock
/// detector: on peer death it aborts with the failure message *plus* a
/// [`StallReport`]; past the world's deadline it aborts with the report
/// instead of blocking forever.
pub(crate) struct WaitGuard<'a> {
    world: &'a WorldState,
    rank: usize,
    kind: &'static str,
    chans: WaitChans<'a>,
    start: Instant,
    registered: Cell<bool>,
}

impl WaitGuard<'_> {
    /// Stall-probe body: register the parked wait (first tick only), then
    /// abort loudly on peer death or deadline expiry.
    pub(crate) fn tick(&self) {
        if !self.registered.get() {
            let chans = match &self.chans {
                WaitChans::Keys(keys) => keys.to_vec(),
                WaitChans::Ids(ids) => ids.iter().map(|c| c.key).collect(),
            };
            *self.world.parked[self.rank].lock() = Some(ParkInfo {
                kind: self.kind,
                chans,
                since: self.start,
            });
            self.registered.set(true);
        }
        // a rank that absorbed the epoch's death marker (service-layer
        // tenant recovery) keeps waiting — its scheduler already knows;
        // everyone else aborts loudly
        if !self.world.absorbed_failure[self.rank].load(Ordering::Acquire) {
            if let Some(msg) = self.world.transport.peer_failure() {
                panic!("{msg}\n{}", self.world.stall_report());
            }
        }
        if let Some(ms) = self.world.deadline_ms {
            let waited = self.start.elapsed().as_millis() as u64;
            if waited >= ms {
                panic!(
                    "wait deadline of {ms} ms (MPISIM_DEADLINE_MS) expired after \
                     {waited} ms blocked in {} on rank {}\n{}",
                    self.kind,
                    self.rank,
                    self.world.stall_report()
                );
            }
        }
    }
}

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        if self.registered.get() {
            *self.world.parked[self.rank].lock() = None;
        }
    }
}

impl WorldState {
    /// Test-only convenience: a thread-fabric world with no wait deadline.
    #[cfg(test)]
    pub fn new(n_ranks: usize, model: Option<ModelCtx>) -> Arc<Self> {
        let transport: Arc<dyn Transport> =
            Arc::new(crate::transport::thread::ThreadTransport::new(n_ranks));
        Self::with_transport_deadline(n_ranks, model, transport, None)
    }

    /// Build a world over an explicit fabric with an explicit wait
    /// deadline (`None` = never). Callers resolve the deadline themselves
    /// (plan override, then `MPISIM_DEADLINE_MS`) — the programmatic
    /// fault-injection entry point ([`crate::World::with_faults`]) must
    /// not mutate the process environment.
    pub fn with_transport_deadline(
        n_ranks: usize,
        model: Option<ModelCtx>,
        transport: Arc<dyn Transport>,
        deadline_ms: Option<u64>,
    ) -> Arc<Self> {
        assert!(n_ranks > 0);
        if let Some(m) = &model {
            assert_eq!(
                m.topo.n_ranks(),
                n_ranks,
                "topology rank count must match world size"
            );
        }
        Arc::new(Self {
            n_ranks,
            model,
            transport,
            channels: Mutex::new(HashMap::new()),
            rotors: (0..n_ranks).map(|_| AtomicUsize::new(0)).collect(),
            parked: (0..n_ranks).map(|_| Mutex::new(None)).collect(),
            epoch: AtomicU64::new(0),
            deadline_ms,
            absorbed_failure: (0..n_ranks).map(|_| AtomicBool::new(false)).collect(),
        })
    }

    /// Open a deadline/forensics guard around one blocked wait. The stall
    /// closure passed to the transport must call [`WaitGuard::tick`].
    pub(crate) fn begin_wait<'a>(
        &'a self,
        rank: usize,
        kind: &'static str,
        chans: WaitChans<'a>,
    ) -> WaitGuard<'a> {
        WaitGuard {
            world: self,
            rank,
            kind,
            chans,
            start: Instant::now(),
            registered: Cell::new(false),
        }
    }

    /// Assemble the forensic dump of the current (apparent) stall: every
    /// locally-registered parked wait, transport queue depths, peer pid
    /// liveness, the epoch id, and the recorded dead rank (if any).
    pub fn stall_report(&self) -> StallReport {
        let f = self.transport.forensics();
        let waits = self
            .parked
            .iter()
            .enumerate()
            .filter_map(|(rank, slot)| {
                slot.try_lock().and_then(|info| {
                    info.as_ref().map(|p| RankWait {
                        rank,
                        kind: p.kind,
                        chans: p.chans.clone(),
                        waited_ms: p.since.elapsed().as_millis() as u64,
                    })
                })
            })
            .collect();
        StallReport {
            epoch: self.epoch.load(Ordering::Relaxed),
            dead_rank: self.transport.dead_rank(),
            waits,
            fabric: f.fabric,
            mailbox_depths: f.mailbox_depths,
            outbox_depth: f.outbox_depth,
            peers: f.peers,
            links: f.links,
        }
    }

    /// Mirror the driver's epoch counter into stall forensics.
    pub(crate) fn set_epoch(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::Relaxed);
    }

    /// The world's wait deadline, if one is configured.
    pub(crate) fn deadline_ms(&self) -> Option<u64> {
        self.deadline_ms
    }

    /// Fault-injection hook for ops that bypass the transport trait
    /// (persistent-channel push/pop) — a no-op on bare fabrics.
    pub(crate) fn inject(&self, rank: usize, op: FaultOp) {
        self.transport.inject(rank, op);
    }

    /// Payload packaging the world's transport requires from senders.
    pub(crate) fn payload_mode(&self) -> crate::transport::PayloadMode {
        self.transport.mode()
    }

    /// Which fabric this world moves bytes over (`"thread"` / `"shm"` /
    /// `"sock"`). Stable across the world's lifetime — cache keys built
    /// from it stay valid for every epoch of a pooled world.
    pub(crate) fn fabric(&self) -> &'static str {
        self.transport.fabric()
    }

    /// Readiness scan over a channel set starting at `start` (wrapping):
    /// index of the first channel holding a delivered, unconsumed message,
    /// else `None`. The rotated entry point transports poll with.
    pub(crate) fn poll_any_from(chans: &[ChanId], start: usize) -> Option<usize> {
        let n = chans.len();
        (0..n).map(|i| (start + i) % n).find(|&i| chans[i].ready())
    }

    /// Non-blocking arrival poll over a channel set for `global_rank`:
    /// index of a channel holding a delivered, unconsumed message, else
    /// `None`. The scan origin rotates per call (see
    /// [`WorldState::poll_any_from`]), so repeated polls over a set with
    /// several hot channels visit all of them instead of always reporting
    /// the lowest ready index.
    pub(crate) fn poll_any(&self, global_rank: usize, chans: &[ChanId]) -> Option<usize> {
        if chans.is_empty() {
            return None;
        }
        let start = self.rotors[global_rank].fetch_add(1, Ordering::Relaxed) % chans.len();
        Self::poll_any_from(chans, start)
    }

    /// Block `global_rank` until **some** channel of the set has a message,
    /// returning its index. The transport yield-spins then parks on the
    /// whole set — one park point for N channels, woken by whichever
    /// deposit lands first, so completion follows delivery order instead
    /// of channel order. The stall probe keeps peer death and the mixed
    /// plain/persistent misuse loud while parked.
    pub(crate) fn wait_any(&self, global_rank: usize, chans: &[ChanId]) -> usize {
        assert!(!chans.is_empty(), "wait_any on an empty channel set");
        let start = self.rotors[global_rank].fetch_add(1, Ordering::Relaxed) % chans.len();
        let guard = self.begin_wait(global_rank, "wait_any", WaitChans::Ids(chans));
        let stall = || {
            guard.tick();
            // keep the mixed plain/persistent misuse loud here too: a
            // plain send aimed at a watched persistent signature lands
            // in the mailbox this set bypasses, and would otherwise
            // hang the parked rank silently
            for c in chans {
                let (ctx_id, src, _, tag) = c.key;
                assert!(
                    !self.transport.probe(global_rank, ctx_id, src, tag),
                    "wait_any on channel {:?}: matching message sits in the \
                     plain mailbox — mixing a plain send with a persistent \
                     receive on one signature is unsupported (use send_init \
                     on the sender)",
                    c.key
                );
            }
        };
        self.transport.wait_any(global_rank, chans, start, &stall)
    }

    /// Record that a rank of the current epoch panicked (pool worker).
    /// `Some(rank)` names the victim for stall forensics.
    pub(crate) fn note_rank_panic(&self, rank: Option<usize>) {
        self.transport.note_rank_panic(rank);
    }

    /// Clear the panic marker (and every rank's absorbed-it marker) at
    /// the start of a fresh epoch.
    pub(crate) fn clear_rank_panic(&self) {
        self.transport.clear_rank_panic();
        for a in &self.absorbed_failure {
            a.store(false, Ordering::Release);
        }
    }

    /// Absorb the current rank-death marker **for `rank` only**,
    /// returning the failure message the first time this rank absorbs
    /// it (see [`crate::RankCtx::absorb_rank_failure`]). The transport
    /// flag is left raised — clearing it here would race peers still
    /// blocked in synchronous waits on the dead tenant's traffic, whose
    /// only way out is the abort that flag drives.
    pub(crate) fn absorb_rank_failure(&self, rank: usize) -> Option<String> {
        let msg = self.transport.peer_failure()?;
        if self.absorbed_failure[rank].swap(true, Ordering::AcqRel) {
            return None; // this rank already absorbed the epoch's failure
        }
        Some(msg)
    }

    /// Get-or-create the persistent channel for `key` — whichever side
    /// registers first creates it; the other side attaches to the same
    /// slot, completing the match once at init time.
    #[cfg(test)]
    pub fn channel<T: Clone + Send + 'static>(&self, key: ChanKey) -> Arc<Channel<T>> {
        Self::channel_in(&mut self.channels.lock(), &self.transport, key, key.2, 0)
    }

    /// Get-or-create against an already-held registry lock — the
    /// bulk-registration path ([`ChanRegistrar`]) resolves many signatures
    /// under one lock acquisition. The transport decides where the
    /// channel's wire buffers live (process heap vs. shared segment).
    fn channel_in<T: Clone + Send + 'static>(
        map: &mut HashMap<ChanKey, ChanSlot>,
        transport: &Arc<dyn Transport>,
        key: ChanKey,
        dst_world: usize,
        len_hint: usize,
    ) -> Arc<Channel<T>> {
        let slot = map
            .entry(key)
            .or_insert_with(|| {
                let chan = Arc::new(
                    match transport.make_channel(
                        key,
                        dst_world,
                        elem_bytes::<T>(),
                        std::any::type_name::<T>(),
                        len_hint,
                    ) {
                        ChanFabric::Local => Channel::<T>::thread(key),
                        ChanFabric::Shm(raw) => Channel::<T>::shm(key, raw),
                        ChanFabric::Sock(wire) => Channel::<T>::sock(key, wire),
                    },
                );
                let pending = {
                    let chan = Arc::clone(&chan);
                    Arc::new(move || chan.pending_len()) as Arc<dyn Fn() -> usize + Send + Sync>
                };
                let drain = {
                    let chan = Arc::clone(&chan);
                    Arc::new(move || chan.drain_pending()) as Arc<dyn Fn() + Send + Sync>
                };
                ChanSlot {
                    type_name: std::any::type_name::<T>(),
                    chan: chan as Arc<dyn Any + Send + Sync>,
                    pending,
                    drain,
                }
            })
            .clone();
        let registered = slot.type_name;
        Arc::downcast::<Channel<T>>(slot.chan).unwrap_or_else(|_| {
            panic!(
                "persistent channel {key:?} datatype mismatch: registered {registered}, \
                 requested {}",
                std::any::type_name::<T>()
            )
        })
    }

    /// Open the channel registry for a bulk registration pass.
    pub(crate) fn chan_registrar(&self) -> ChanRegistrar<'_> {
        ChanRegistrar {
            guard: self.channels.lock(),
            transport: &self.transport,
        }
    }

    /// Discard all in-flight traffic: every transport-held envelope
    /// (mailbox queues / shm mailbox rings) and every undelivered
    /// persistent-channel payload, via the per-channel drain hooks —
    /// so the failed-epoch guarantee holds identically on every fabric.
    /// Registrations (the channel registry itself) survive. A pooled world
    /// calls this after a panicked epoch so stale messages cannot leak
    /// into the next one.
    pub fn drain_in_flight(&self) {
        self.transport.drain_in_flight();
        for slot in self.channels.lock().values() {
            (slot.drain)();
        }
    }

    /// Does the persistent channel for `key` exist with messages pending?
    /// Untyped — used by the plain receive path to diagnose mixed traffic.
    pub fn channel_pending(&self, key: &ChanKey) -> bool {
        self.channels
            .lock()
            .get(key)
            .is_some_and(|slot| (slot.pending)() > 0)
    }

    /// Persistent channels registered so far (every context, every
    /// signature).
    pub(crate) fn registered_channels(&self) -> usize {
        self.channels.lock().len()
    }

    /// Undelivered payloads on the persistent channels of context
    /// `ctx_id`, summed over the registry's pending hooks. Zero means the
    /// context is quiescent: a new tenant can re-attach to its channels
    /// without seeing stale traffic.
    pub(crate) fn context_pending(&self, ctx_id: u64) -> usize {
        self.channels
            .lock()
            .iter()
            .filter(|(key, _)| key.0 == ctx_id)
            .map(|(_, slot)| (slot.pending)())
            .sum()
    }

    /// Deposit an envelope in `global_dst`'s mailbox and wake any waiter.
    /// `src_world` identifies the producing rank (the shm fabric routes
    /// each (src, dst) pair over its own single-producer ring).
    pub fn deposit(&self, src_world: usize, global_dst: usize, env: Envelope) {
        self.transport.deposit(src_world, global_dst, env);
    }

    /// Blocking matched receive for `global_dst`: first envelope with the
    /// given (ctx, src, tag). Returns the envelope and the queue length that
    /// was searched (for queue-cost charging). `dst_comm_rank` is the
    /// receiver's rank within the communicator — the channel-signature
    /// coordinate used to diagnose a persistent send aimed at this plain
    /// receive (which would otherwise hang silently: persistent sends
    /// bypass the mailbox).
    pub fn match_recv(
        &self,
        global_dst: usize,
        ctx_id: u64,
        src: usize,
        dst_comm_rank: usize,
        tag: u64,
    ) -> (Envelope, usize) {
        let chan_key: ChanKey = (ctx_id, src, dst_comm_rank, tag);
        let keys = [chan_key];
        let guard = self.begin_wait(global_dst, "plain recv", WaitChans::Keys(&keys));
        let stall = || {
            guard.tick();
            assert!(
                !self.channel_pending(&chan_key),
                "plain recv from {src} tag {tag}: matching message sits on a \
                 persistent channel — mixing a persistent send with a plain \
                 recv on one signature is unsupported (use recv_init on the \
                 receiver)"
            );
        };
        self.transport
            .match_recv(global_dst, ctx_id, src, tag, &stall)
    }

    /// Non-blocking probe: would a matched receive complete immediately?
    pub fn probe(&self, global_dst: usize, ctx_id: u64, src: usize, tag: u64) -> bool {
        self.transport.probe(global_dst, ctx_id, src, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(ctx_id: u64, src: usize, tag: u64, val: u32) -> Envelope {
        Envelope {
            ctx_id,
            src,
            tag,
            arrival: 0.0,
            payload: Payload::typed(vec![val]),
        }
    }

    fn take_u32(payload: Payload) -> Vec<u32> {
        payload.take::<u32>().expect("u32 payload")
    }

    #[test]
    fn deposit_then_match() {
        let w = WorldState::new(2, None);
        w.deposit(0, 1, env(0, 0, 5, 42));
        let (got, searched) = w.match_recv(1, 0, 0, 1, 5);
        assert_eq!(searched, 1);
        assert_eq!(take_u32(got.payload), vec![42]);
    }

    #[test]
    fn matching_respects_tag_and_ctx() {
        let w = WorldState::new(1, None);
        w.deposit(0, 0, env(0, 0, 1, 10));
        w.deposit(0, 0, env(1, 0, 2, 20));
        w.deposit(0, 0, env(0, 0, 2, 30));
        // match ctx 0 / tag 2 skips both earlier non-matching envelopes
        let (got, _) = w.match_recv(0, 0, 0, 0, 2);
        assert_eq!(take_u32(got.payload), vec![30]);
        assert!(w.probe(0, 0, 0, 1));
        assert!(w.probe(0, 1, 0, 2));
        assert!(!w.probe(0, 0, 0, 2));
    }

    #[test]
    fn non_overtaking_same_signature() {
        let w = WorldState::new(1, None);
        w.deposit(0, 0, env(0, 3, 9, 1));
        w.deposit(0, 0, env(0, 3, 9, 2));
        let (a, _) = w.match_recv(0, 0, 3, 0, 9);
        let (b, _) = w.match_recv(0, 0, 3, 0, 9);
        assert_eq!(take_u32(a.payload), vec![1]);
        assert_eq!(take_u32(b.payload), vec![2]);
    }

    #[test]
    fn payload_bytes_roundtrip_and_mismatch() {
        let p = Payload::bytes_from(&[1.5f64, -2.25, 8.0]);
        let back = p.take::<f64>().expect("same type roundtrips");
        assert_eq!(back, vec![1.5, -2.25, 8.0]);
        let p = Payload::bytes_from(&[7u32]);
        let err = p.take::<f64>().expect_err("type name mismatch");
        assert_eq!(err, "u32");
    }

    #[test]
    fn channel_fifo_and_reuse() {
        let w = WorldState::new(2, None);
        let c = w.channel::<u32>((0, 0, 1, 7));
        assert!(!c.ready());
        c.push(&[1, 2], 0.5);
        c.push(&[3, 4], 1.5);
        assert!(c.ready());
        let (buf, arrival) = c.pop_with(|| {});
        assert_eq!((buf.as_slice(), arrival), ([1, 2].as_slice(), 0.5));
        c.recycle(buf);
        let (buf, arrival) = c.pop_with(|| {});
        assert_eq!((buf.as_slice(), arrival), ([3, 4].as_slice(), 1.5));
        c.recycle(buf);
        assert!(!c.ready());
        // both sides resolve to the same slot
        let c2 = w.channel::<u32>((0, 0, 1, 7));
        c2.push(&[9, 9], 0.0);
        assert!(c.ready());
    }

    #[test]
    fn channel_blocking_pop_wakes_on_push() {
        let w = WorldState::new(1, None);
        let c = w.channel::<u8>((0, 0, 0, 1));
        let c2 = w.channel::<u8>((0, 0, 0, 1));
        let t = std::thread::spawn(move || {
            let (buf, _) = c2.pop_with(|| {});
            buf[0]
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        c.push(&[42], 0.0);
        assert_eq!(t.join().unwrap(), 42);
    }

    #[test]
    fn try_pop_is_nonblocking_and_fifo() {
        let w = WorldState::new(1, None);
        let c = w.channel::<u32>((0, 0, 0, 2));
        assert!(c.try_pop().is_none());
        c.push(&[7], 0.25);
        c.push(&[8], 0.75);
        let (buf, arrival) = c.try_pop().expect("message delivered");
        assert_eq!((buf.as_slice(), arrival), ([7].as_slice(), 0.25));
        c.recycle(buf);
        let (buf, _) = c.try_pop().expect("second message delivered");
        assert_eq!(buf.as_slice(), [8].as_slice());
        c.recycle(buf);
        assert!(c.try_pop().is_none());
    }

    #[test]
    fn poll_any_from_scans_from_the_start_position() {
        let w = WorldState::new(1, None);
        let a = w.channel::<u8>((0, 0, 0, 10));
        let b = w.channel::<u8>((0, 0, 0, 11));
        let ids = [a.id(), b.id()];
        assert_eq!(WorldState::poll_any_from(&ids, 0), None);
        b.push(&[1], 0.0);
        assert_eq!(WorldState::poll_any_from(&ids, 0), Some(1));
        a.push(&[2], 0.0);
        // both ready: the start position picks the winner
        assert_eq!(WorldState::poll_any_from(&ids, 0), Some(0));
        assert_eq!(WorldState::poll_any_from(&ids, 1), Some(1));
    }

    #[test]
    fn poll_any_rotation_visits_every_hot_channel() {
        // two channels permanently hot: the rotating scan start must
        // surface BOTH across consecutive polls — a fixed first-ready scan
        // would report index 0 forever and starve channel 1
        let w = WorldState::new(1, None);
        let a = w.channel::<u8>((0, 0, 0, 30));
        let b = w.channel::<u8>((0, 0, 0, 31));
        a.push(&[1], 0.0);
        b.push(&[2], 0.0);
        let ids = [a.id(), b.id()];
        let seen: std::collections::HashSet<usize> = (0..4)
            .map(|_| w.poll_any(0, &ids).expect("both channels are hot"))
            .collect();
        assert_eq!(
            seen.len(),
            2,
            "rotating poll_any must visit both hot channels"
        );
    }

    #[test]
    fn wait_any_parks_on_the_set_and_wakes_on_either_channel() {
        // the receiver parks on BOTH channels; a deposit into the second
        // one (registered last) must wake it — the park is on the set, not
        // on any single channel's condvar
        let w = WorldState::new(1, None);
        let a = w.channel::<u8>((0, 0, 0, 20));
        let b = w.channel::<u8>((0, 0, 0, 21));
        let w2 = Arc::clone(&w);
        let (aid, bid) = (a.id(), b.id());
        let t = std::thread::spawn(move || w2.wait_any(0, &[aid, bid]));
        // let the receiver get past the spin phase and genuinely park
        std::thread::sleep(std::time::Duration::from_millis(30));
        b.push(&[9], 0.0);
        assert_eq!(t.join().unwrap(), 1);
        b.try_pop()
            .expect("wait_any leaves the message on the channel");
        // and again for the other channel, now that the wait set is warm
        let (aid, bid) = (a.id(), b.id());
        let w2 = Arc::clone(&w);
        let t = std::thread::spawn(move || w2.wait_any(0, &[aid, bid]));
        std::thread::sleep(std::time::Duration::from_millis(30));
        a.push(&[3], 0.0);
        assert_eq!(t.join().unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "datatype mismatch")]
    fn channel_type_mismatch_panics() {
        let w = WorldState::new(1, None);
        let _ = w.channel::<u32>((0, 0, 0, 3));
        let _ = w.channel::<f64>((0, 0, 0, 3));
    }

    #[test]
    fn blocking_recv_wakes_on_deposit() {
        let w = WorldState::new(1, None);
        let w2 = Arc::clone(&w);
        let t = std::thread::spawn(move || {
            let (env, _) = w2.match_recv(0, 0, 0, 0, 7);
            take_u32(env.payload)
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        w.deposit(0, 0, env(0, 0, 7, 99));
        assert_eq!(t.join().unwrap(), vec![99]);
    }
}
