//! The socket fabric: ranks exchange framed envelopes over TCP or
//! Unix-domain stream connections, one full-duplex link per peer process.
//!
//! Topologies:
//!
//! * **loopback** ([`SockTransport::loopback`]) — every rank lives in this
//!   process and ALL plain-send / persistent-channel traffic rides one
//!   self-link through a real socket (`MPISIM_TRANSPORT=sock` under
//!   [`crate::World::run`] / [`crate::WorldPool`]). This is the
//!   equivalence surface: the full wire path runs in-process.
//! * **multi-process** ([`SockTransport::bind`]) — one rank per OS
//!   process, meshed via rendezvous bootstrap (`boot::SockBoot` under
//!   [`crate::ProcessWorld`]).
//!
//! Failure semantics (the point of this fabric — DESIGN.md §10): connects
//! retry with capped exponential backoff + jitter; idle links carry
//! heartbeats so a silent peer is detected within the reconnect window; a
//! severed connection reconnects and *resumes* from the receiver's
//! cumulative sequence number (replay buffer upstream, duplicate-drop
//! downstream — exactly-once); permanent loss marks the link dead, which
//! every blocked wait observes through `peer_failure` within one stall
//! probe and degrades to a loud abort / [`crate::EpochError`].

pub(crate) mod boot;
pub(crate) mod link;

use super::wire::{decode_envelope, encode_env_hdr};
use super::{ChanFabric, PayloadMode, Transport, TransportForensics};
use crate::state::{ChanId, ChanKey, Envelope, Mailbox, Payload, WaitSet, WorldState};
use link::{
    auto_addr, connect_once, connect_retry, encode_frame, read_frame, Link, Listener, RetryCfg,
    Stream, ACK_EVERY, K_ACK, K_CHAN, K_CMD, K_DATA, K_DEATH, K_DONE, K_FLUSH, K_HELLO, K_JOIN,
    K_TABLE,
};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

const NO_RANK: usize = usize::MAX;

/// Control-plane inbox: epoch commands, completions, and bootstrap
/// join/table traffic, deposited by reader threads and consumed by
/// `boot::SockBoot`. (Death notices raise the transport's flag and wake
/// [`Ctrl::cv`]; they leave nothing here.)
#[derive(Default)]
pub(crate) struct CtrlState {
    pub cmds: VecDeque<u64>,
    pub dones: Vec<(usize, u64)>,
    pub joins: Vec<(usize, String)>,
    pub table: Option<Vec<String>>,
}

pub(crate) struct Ctrl {
    pub st: Mutex<CtrlState>,
    pub cv: Condvar,
}

/// Flush round-trip rendezvous for loopback draining: `drain_in_flight`
/// pushes a token through the self-link and waits for the reader to
/// observe it, forcing every frame queued ahead of the token through the
/// socket first.
struct FlushPoint {
    next: AtomicU64,
    seen: Mutex<u64>,
    cv: Condvar,
}

/// What a persistent channel needs from the socket fabric, decided at
/// registration ([`Transport::make_channel`]): the link to push over (if
/// the receiving rank is reached through a socket) and the transport to
/// register a delivery closure with (if this process hosts the receiver).
pub(crate) struct SockChanWire {
    pub route: Option<Arc<Link>>,
    pub register: Option<Arc<SockTransport>>,
}

/// Receive-side delivery hook of a registered persistent channel: called
/// by the link reader with the payload's arrival stamp and wire bytes.
pub(crate) type DeliverFn = Arc<dyn Fn(f64, &[u8]) + Send + Sync>;

struct ChanTable {
    deliver: HashMap<ChanKey, DeliverFn>,
    /// Payloads that arrived before the receiving side registered.
    undelivered: HashMap<ChanKey, Vec<(f64, Vec<u8>)>>,
}

pub(crate) struct SockTransport {
    pub(crate) my_proc: usize,
    n_procs: usize,
    /// Concrete address our listener answers on (what peers dial).
    pub(crate) listener_addr: String,
    mailboxes: Vec<Mailbox>,
    wait_sets: Vec<Arc<WaitSet>>,
    /// Per-peer-process links; `None` at `my_proc` in multi-process
    /// worlds (a loopback world has its self-link at index 0).
    pub(crate) links: Vec<Option<Arc<Link>>>,
    chans: Mutex<ChanTable>,
    rank_panicked: AtomicBool,
    dead_rank: AtomicUsize,
    pub(crate) ctrl: Ctrl,
    flush: FlushPoint,
    pub(crate) cfg: RetryCfg,
    shutdown: Arc<AtomicBool>,
    accept_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    writer_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    me: Mutex<Weak<SockTransport>>,
}

impl SockTransport {
    /// All ranks in this process; every message crosses a real socket
    /// through one self-link. Listens on `MPISIM_SOCK_ADDR` if set (a UDS
    /// path or TCP `host:port`; port 0 allocates), else an auto-assigned
    /// UDS path.
    pub(crate) fn loopback(n_ranks: usize) -> Arc<SockTransport> {
        let spec = std::env::var("MPISIM_SOCK_ADDR").unwrap_or_else(|_| auto_addr());
        let t = Self::bind_inner(n_ranks, 0, 1, &spec);
        let link = t.links[0].as_ref().expect("loopback self-link").clone();
        *link.dial_addr.lock() = Some(t.listener_addr.clone());
        let stream = connect_retry(&t.listener_addr, t.cfg).unwrap_or_else(|e| {
            panic!(
                "sock loopback: cannot dial own listener {}: {e}",
                t.listener_addr
            )
        });
        t.handshake_connect(&link, stream)
            .unwrap_or_else(|e| panic!("sock loopback: self-link handshake failed: {e}"));
        t
    }

    /// One rank per process: bind a listener and create unconnected links
    /// to every peer. `boot::SockBoot` drives the rendezvous dialing.
    pub(crate) fn bind(my_proc: usize, n_procs: usize, listen_spec: &str) -> Arc<SockTransport> {
        Self::bind_inner(n_procs, my_proc, n_procs, listen_spec)
    }

    fn bind_inner(
        n_ranks: usize,
        my_proc: usize,
        n_procs: usize,
        listen_spec: &str,
    ) -> Arc<SockTransport> {
        let (listener, listener_addr) = Listener::bind(listen_spec)
            .unwrap_or_else(|e| panic!("sock fabric: cannot bind {listen_spec:?}: {e}"));
        let cfg = RetryCfg::from_env();
        let links: Vec<Option<Arc<Link>>> = (0..n_procs)
            .map(|p| {
                if n_procs == 1 {
                    Some(Link::new(0, 0, true))
                } else if p == my_proc {
                    None
                } else {
                    Some(Link::new(p, p, false))
                }
            })
            .collect();
        let t = Arc::new(SockTransport {
            my_proc,
            n_procs,
            listener_addr,
            mailboxes: (0..n_ranks).map(|_| Mailbox::default()).collect(),
            wait_sets: (0..n_ranks).map(|_| Arc::new(WaitSet::new())).collect(),
            links,
            chans: Mutex::new(ChanTable {
                deliver: HashMap::new(),
                undelivered: HashMap::new(),
            }),
            rank_panicked: AtomicBool::new(false),
            dead_rank: AtomicUsize::new(NO_RANK),
            ctrl: Ctrl {
                st: Mutex::new(CtrlState::default()),
                cv: Condvar::new(),
            },
            flush: FlushPoint {
                next: AtomicU64::new(0),
                seen: Mutex::new(0),
                cv: Condvar::new(),
            },
            cfg,
            shutdown: Arc::new(AtomicBool::new(false)),
            accept_thread: Mutex::new(None),
            writer_threads: Mutex::new(Vec::new()),
            me: Mutex::new(Weak::new()),
        });
        *t.me.lock() = Arc::downgrade(&t);
        {
            let mut writers = t.writer_threads.lock();
            for link in t.links.iter().flatten() {
                let (l, c) = (Arc::clone(link), cfg);
                writers.push(
                    std::thread::Builder::new()
                        .name(format!("mpisim-sock-w{}", l.peer_proc))
                        .spawn(move || link::run_writer(l, c))
                        .expect("spawn sock writer"),
                );
            }
        }
        let weak = Arc::downgrade(&t);
        let shutdown = Arc::clone(&t.shutdown);
        *t.accept_thread.lock() = Some(
            std::thread::Builder::new()
                .name("mpisim-sock-accept".into())
                .spawn(move || run_accept(weak, listener, shutdown))
                .expect("spawn sock accept"),
        );
        t
    }

    pub(crate) fn proc_of(&self, rank: usize) -> usize {
        if self.n_procs == 1 {
            0
        } else {
            rank
        }
    }

    fn hosted(&self, rank: usize) -> bool {
        self.n_procs == 1 || rank == self.my_proc
    }

    fn me(&self) -> Arc<SockTransport> {
        self.me.lock().upgrade().expect("transport alive")
    }

    /// Dial `proc`'s listener and complete the handshake (bootstrap and
    /// mesh connects; reconnects reuse [`SockTransport::reconnect`]).
    pub(crate) fn connect_to(&self, proc: usize, addr: &str) -> Result<(), String> {
        let link = self.links[proc].as_ref().expect("link exists").clone();
        *link.dial_addr.lock() = Some(addr.to_string());
        let stream = connect_retry(addr, self.cfg).map_err(|e| {
            format!(
                "connect to proc {proc} at {addr} failed after {} attempts: {e}",
                self.cfg.retries + 1
            )
        })?;
        self.handshake_connect(&link, stream)
            .map_err(|e| format!("handshake with proc {proc} at {addr} failed: {e}"))
    }

    /// Connector-side handshake on a fresh stream: send HELLO with our
    /// cumulative receive seq, await the peer's (remote links), install.
    fn handshake_connect(&self, link: &Arc<Link>, mut stream: Stream) -> std::io::Result<()> {
        let my_rx = link.st.lock().rx_seq;
        let mut hello = Vec::with_capacity(12);
        hello.extend_from_slice(&(self.my_proc as u32).to_le_bytes());
        hello.extend_from_slice(&my_rx.to_le_bytes());
        stream.write_all(&encode_frame(K_HELLO, 0, &hello))?;
        if link.self_loop {
            // the peer is this very process: its cumulative rx IS ours,
            // and the accepted end arrives through our own accept loop
            link.install_writer(stream, my_rx);
            return Ok(());
        }
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        let (kind, _, body) = read_frame(&mut stream)?;
        if kind != K_HELLO || body.len() < 12 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "peer did not answer the handshake with HELLO",
            ));
        }
        let peer_rx = u64::from_le_bytes(body[4..12].try_into().unwrap());
        stream.set_read_timeout(None)?;
        let (reader_end, gen) = link.install(stream, peer_rx)?;
        self.spawn_reader(Arc::clone(link), reader_end, gen);
        Ok(())
    }

    /// Accept-side handshake: identify the peer from its HELLO, reply
    /// with our cumulative receive seq, install both directions (or just
    /// the reading end for a loopback self-link).
    fn handle_accept(&self, mut stream: Stream) -> std::io::Result<()> {
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        let (kind, _, body) = read_frame(&mut stream)?;
        if kind != K_HELLO || body.len() < 12 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "connection did not open with HELLO",
            ));
        }
        let proc = u32::from_le_bytes(body[0..4].try_into().unwrap()) as usize;
        let peer_rx = u64::from_le_bytes(body[4..12].try_into().unwrap());
        stream.set_read_timeout(None)?;
        if proc == self.my_proc {
            let link = self.links[self.proc_of(0)]
                .as_ref()
                .expect("self-link exists")
                .clone();
            let gen = link.install_reader(&stream)?;
            self.spawn_reader(link, stream, gen);
            return Ok(());
        }
        let link = match self.links.get(proc).and_then(|l| l.as_ref()) {
            Some(l) => Arc::clone(l),
            None => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("HELLO from unknown proc {proc}"),
                ))
            }
        };
        let my_rx = link.st.lock().rx_seq;
        let mut hello = Vec::with_capacity(12);
        hello.extend_from_slice(&(self.my_proc as u32).to_le_bytes());
        hello.extend_from_slice(&my_rx.to_le_bytes());
        stream.write_all(&encode_frame(K_HELLO, 0, &hello))?;
        let (reader_end, gen) = link.install(stream, peer_rx)?;
        self.spawn_reader(link, reader_end, gen);
        Ok(())
    }

    fn spawn_reader(&self, link: Arc<Link>, stream: Stream, gen: u64) {
        let weak = self.me.lock().clone();
        let cfg = self.cfg;
        std::thread::Builder::new()
            .name(format!("mpisim-sock-r{}", link.peer_proc))
            .spawn(move || run_reader(weak, link, stream, gen, cfg))
            .expect("spawn sock reader");
    }

    /// Connector-side reconnect loop, run by the reader that observed the
    /// break: capped exponential backoff, then permanent failure.
    fn reconnect(&self, link: Arc<Link>, addr: &str) {
        let mut last = String::from("no attempt made");
        for attempt in 0..=self.cfg.retries {
            {
                let st = link.st.lock();
                if st.dead || st.shutdown {
                    return;
                }
            }
            match connect_once(addr) {
                Ok(stream) => match self.handshake_connect(&link, stream) {
                    Ok(()) => return,
                    Err(e) => last = e.to_string(),
                },
                Err(e) => last = e.to_string(),
            }
            if attempt < self.cfg.retries {
                std::thread::sleep(Duration::from_millis(
                    (self.cfg.backoff_ms << attempt.min(16)).min(1000),
                ));
            }
        }
        link.fail(format!(
            "reconnect to proc {} at {addr} failed after {} attempts: {last}",
            link.peer_proc,
            self.cfg.retries + 1
        ));
    }

    /// Route an incoming sequenced frame to its consumer.
    fn dispatch(&self, kind: u8, body: &[u8]) {
        match kind {
            K_DATA => {
                let dst = u32::from_le_bytes(body[4..8].try_into().unwrap()) as usize;
                let arrival = f64::from_bits(u64::from_le_bytes(body[8..16].try_into().unwrap()));
                let (env, remaining) = decode_envelope(arrival, &body[16..]);
                assert_eq!(remaining, 0, "sock frames carry whole envelopes");
                let mb = &self.mailboxes[dst];
                mb.queue.lock().push_back(env);
                mb.cv.notify_all();
            }
            K_CHAN => {
                let u = |o: usize| u64::from_le_bytes(body[o..o + 8].try_into().unwrap());
                let key: ChanKey = (u(0), u(8) as usize, u(16) as usize, u(24));
                let arrival = f64::from_bits(u(32));
                let f = {
                    let mut ch = self.chans.lock();
                    match ch.deliver.get(&key) {
                        Some(f) => Some(Arc::clone(f)),
                        None => {
                            // receiver not registered yet: stash for the
                            // drain at registration time
                            ch.undelivered
                                .entry(key)
                                .or_default()
                                .push((arrival, body[40..].to_vec()));
                            None
                        }
                    }
                };
                if let Some(f) = f {
                    f(arrival, &body[40..]);
                }
            }
            K_CMD => {
                let word = u64::from_le_bytes(body[0..8].try_into().unwrap());
                self.ctrl.st.lock().cmds.push_back(word);
                self.ctrl.cv.notify_all();
            }
            K_DONE => {
                let rank = u32::from_le_bytes(body[0..4].try_into().unwrap()) as usize;
                let epoch = u64::from_le_bytes(body[4..12].try_into().unwrap());
                self.ctrl.st.lock().dones.push((rank, epoch));
                self.ctrl.cv.notify_all();
            }
            K_DEATH => {
                let rank = u32::from_le_bytes(body[0..4].try_into().unwrap()) as usize;
                self.note_rank_panic(Some(rank));
                self.ctrl.cv.notify_all();
            }
            K_FLUSH => {
                let token = u64::from_le_bytes(body[0..8].try_into().unwrap());
                let mut seen = self.flush.seen.lock();
                if token > *seen {
                    *seen = token;
                }
                self.flush.cv.notify_all();
            }
            K_JOIN => {
                let rank = u32::from_le_bytes(body[0..4].try_into().unwrap()) as usize;
                let alen = u32::from_le_bytes(body[4..8].try_into().unwrap()) as usize;
                let addr = String::from_utf8_lossy(&body[8..8 + alen]).into_owned();
                self.ctrl.st.lock().joins.push((rank, addr));
                self.ctrl.cv.notify_all();
            }
            K_TABLE => {
                let n = u32::from_le_bytes(body[0..4].try_into().unwrap()) as usize;
                let mut addrs = Vec::with_capacity(n);
                let mut off = 4;
                for _ in 0..n {
                    let len = u32::from_le_bytes(body[off..off + 4].try_into().unwrap()) as usize;
                    off += 4;
                    addrs.push(String::from_utf8_lossy(&body[off..off + len]).into_owned());
                    off += len;
                }
                self.ctrl.st.lock().table = Some(addrs);
                self.ctrl.cv.notify_all();
            }
            other => unreachable!("sock fabric: unknown frame kind {other}"),
        }
    }

    /// Register the receiving side of a persistent channel and drain any
    /// payloads that raced ahead of registration.
    pub(crate) fn register_deliver(&self, key: ChanKey, f: DeliverFn) {
        let pending = {
            let mut ch = self.chans.lock();
            let pending = ch.undelivered.remove(&key).unwrap_or_default();
            ch.deliver.insert(key, Arc::clone(&f));
            pending
        };
        for (arrival, bytes) in pending {
            f(arrival, &bytes);
        }
    }

    /// The first dead link, for failure reporting.
    fn dead_link(&self) -> Option<(usize, usize, String)> {
        for link in self.links.iter().flatten() {
            let st = link.st.lock();
            if st.dead {
                let note = st
                    .dead_note
                    .clone()
                    .unwrap_or_else(|| "no reason recorded".into());
                return Some((link.peer_proc, link.blame, note));
            }
        }
        None
    }
}

impl Transport for SockTransport {
    fn mode(&self) -> PayloadMode {
        PayloadMode::Bytes
    }

    fn fabric(&self) -> &'static str {
        "sock"
    }

    fn deposit(&self, src_world: usize, dst_world: usize, env: Envelope) {
        match &self.links[self.proc_of(dst_world)] {
            Some(link) => {
                let Payload::Bytes { data, type_name } = &env.payload else {
                    unreachable!("sock deposit requires byte payloads (PayloadMode::Bytes)");
                };
                let mut body = Vec::with_capacity(16 + 32 + type_name.len() + data.len());
                body.extend_from_slice(&(src_world as u32).to_le_bytes());
                body.extend_from_slice(&(dst_world as u32).to_le_bytes());
                body.extend_from_slice(&env.arrival.to_bits().to_le_bytes());
                body.extend_from_slice(&encode_env_hdr(
                    env.ctx_id,
                    env.src,
                    env.tag,
                    type_name.len(),
                    data.len(),
                ));
                body.extend_from_slice(type_name.as_bytes());
                body.extend_from_slice(data);
                link.send_frame(K_DATA, &body);
            }
            None => {
                // own rank in a multi-process world: no wire to cross
                let mb = &self.mailboxes[dst_world];
                mb.queue.lock().push_back(env);
                mb.cv.notify_all();
            }
        }
    }

    fn match_recv(
        &self,
        global_dst: usize,
        ctx_id: u64,
        src: usize,
        tag: u64,
        stall: &dyn Fn(),
    ) -> (Envelope, usize) {
        let mb = &self.mailboxes[global_dst];
        let mut q = mb.queue.lock();
        loop {
            let searched = q.len();
            if let Some(pos) = q
                .iter()
                .position(|e| e.ctx_id == ctx_id && e.src == src && e.tag == tag)
            {
                let env = q.remove(pos).expect("position valid");
                return (env, searched);
            }
            if mb
                .cv
                .wait_for(
                    &mut q,
                    std::time::Duration::from_millis(crate::stall::stall_ms()),
                )
                .timed_out()
            {
                stall();
            }
        }
    }

    fn probe(&self, global_dst: usize, ctx_id: u64, src: usize, tag: u64) -> bool {
        let q = self.mailboxes[global_dst].queue.lock();
        q.iter()
            .any(|e| e.ctx_id == ctx_id && e.src == src && e.tag == tag)
    }

    fn wait_any(
        &self,
        global_rank: usize,
        chans: &[ChanId],
        start: usize,
        stall: &dyn Fn(),
    ) -> usize {
        for _ in 0..24 {
            if let Some(i) = WorldState::poll_any_from(chans, start) {
                return i;
            }
            std::thread::yield_now();
        }
        let ws = &self.wait_sets[global_rank];
        for c in chans {
            c.attach(ws);
        }
        let found = loop {
            let seen = ws.generation();
            if let Some(i) = WorldState::poll_any_from(chans, start) {
                break i;
            }
            ws.park_past(seen, stall);
        };
        for c in chans {
            c.detach(ws);
        }
        found
    }

    fn make_channel(
        &self,
        _key: ChanKey,
        dst_world: usize,
        _elem_bytes: usize,
        _type_name: &'static str,
        _len_hint: usize,
    ) -> ChanFabric {
        ChanFabric::Sock(SockChanWire {
            route: self.links[self.proc_of(dst_world)].clone(),
            register: self.hosted(dst_world).then(|| self.me()),
        })
    }

    fn drain_in_flight(&self) {
        if self.n_procs == 1 {
            // force everything queued ahead through the self-link first
            if let Some(link) = &self.links[0] {
                if !link.st.lock().dead {
                    let token = self.flush.next.fetch_add(1, Ordering::Relaxed) + 1;
                    link.send_frame(K_FLUSH, &token.to_le_bytes());
                    let deadline = Instant::now() + Duration::from_secs(2);
                    let mut seen = self.flush.seen.lock();
                    while *seen < token {
                        let Some(left) = deadline
                            .checked_duration_since(Instant::now())
                            .filter(|d| !d.is_zero())
                        else {
                            break; // link died mid-drain; fall through to the sweep
                        };
                        self.flush.cv.wait_for(&mut seen, left);
                    }
                }
            }
        }
        for mb in &self.mailboxes {
            mb.queue.lock().clear();
        }
        self.chans.lock().undelivered.clear();
    }

    fn note_rank_panic(&self, rank: Option<usize>) {
        if let Some(r) = rank {
            let _ =
                self.dead_rank
                    .compare_exchange(NO_RANK, r, Ordering::AcqRel, Ordering::Relaxed);
        }
        self.rank_panicked.store(true, Ordering::Release);
    }

    fn clear_rank_panic(&self) {
        // link death is permanent and NOT cleared here: a world whose
        // fabric lost a host cannot start a healthy epoch
        self.rank_panicked.store(false, Ordering::Release);
        self.dead_rank.store(NO_RANK, Ordering::Release);
    }

    fn dead_rank(&self) -> Option<usize> {
        match self.dead_rank.load(Ordering::Acquire) {
            NO_RANK => self.dead_link().map(|(_, blame, _)| blame),
            r => Some(r),
        }
    }

    fn peer_failure(&self) -> Option<String> {
        if let Some((proc, blame, note)) = self.dead_link() {
            return Some(format!(
                "sock link to proc {proc} (rank {blame}) is dead: {note}"
            ));
        }
        if !self.rank_panicked.load(Ordering::Acquire) {
            return None;
        }
        let who = match self.dead_rank() {
            Some(r) => format!(" (rank {r} died)"),
            None => String::new(),
        };
        Some(format!(
            "a peer rank panicked this epoch; abandoning blocked receive{who}"
        ))
    }

    fn sever_link(&self, peer_world: usize) {
        if let Some(link) = &self.links[self.proc_of(peer_world)] {
            link.disconnect();
        }
    }

    fn forensics(&self) -> TransportForensics {
        let links: Vec<_> = self.links.iter().flatten().map(|l| l.status()).collect();
        TransportForensics {
            fabric: "sock",
            mailbox_depths: self
                .mailboxes
                .iter()
                .map(|mb| mb.queue.try_lock().map(|q| q.len()))
                .collect(),
            outbox_depth: links.iter().map(|l| l.outbox).sum(),
            peers: Vec::new(),
            links,
        }
    }
}

impl Drop for SockTransport {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        for link in self.links.iter().flatten() {
            link.close();
        }
        for h in self.writer_threads.get_mut().drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.accept_thread.get_mut().take() {
            let _ = h.join();
        }
        if link::is_uds(&self.listener_addr) {
            let _ = std::fs::remove_file(&self.listener_addr);
        }
    }
}

/// Accept thread: poll the (non-blocking) listener, handshake each
/// arrival. Failed handshakes are dropped — a half-dialed peer retries.
fn run_accept(t: Weak<SockTransport>, listener: Listener, shutdown: Arc<AtomicBool>) {
    while !shutdown.load(Ordering::Acquire) {
        match listener.try_accept() {
            Ok(Some(stream)) => {
                let Some(t) = t.upgrade() else { return };
                let _ = t.handle_accept(stream);
            }
            _ => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Per-connection reader: decode frames, enforce the sequence discipline
/// (duplicates from replay dropped, gaps fatal), dispatch, and — when the
/// stream breaks and this side is the connector — run the reconnect loop.
fn run_reader(
    t: Weak<SockTransport>,
    link: Arc<Link>,
    mut stream: Stream,
    gen: u64,
    _cfg: RetryCfg,
) {
    loop {
        match read_frame(&mut stream) {
            Ok((kind, seq, body)) => {
                link.touch();
                if kind == K_ACK {
                    link.apply_ack(u64::from_le_bytes(body[0..8].try_into().unwrap()));
                    continue;
                }
                let fresh = {
                    let mut st = link.st.lock();
                    if seq <= st.rx_seq {
                        false // duplicate from a replay after reconnect
                    } else {
                        assert_eq!(
                            seq,
                            st.rx_seq + 1,
                            "sock link from proc {}: sequence gap (exactly-once violated)",
                            link.peer_proc
                        );
                        st.rx_seq = seq;
                        st.rx_since_ack += 1;
                        if link.self_loop {
                            // both ends share this state: ack locally
                            st.acked = st.acked.max(seq);
                            while st.replay.front().is_some_and(|(s, _)| *s <= st.acked) {
                                st.replay.pop_front();
                            }
                        } else if st.rx_since_ack >= ACK_EVERY {
                            st.ack_requested = true;
                        }
                        true
                    }
                };
                if fresh {
                    link.cv.notify_all(); // writer may owe an ack
                    let Some(t) = t.upgrade() else { return };
                    t.dispatch(kind, &body);
                }
            }
            Err(_) => {
                let dial = {
                    let st = link.st.lock();
                    if st.shutdown || st.dead || st.reader_gen != gen {
                        return; // replaced or torn down; nothing to heal
                    }
                    link.dial_addr.lock().clone()
                };
                // disconnect() also starts the passive-side loss clock;
                // with no dial address this is the passive side, and the
                // writer's window decides its fate
                link.disconnect();
                if let Some(addr) = dial {
                    let Some(t) = t.upgrade() else { return };
                    t.reconnect(link, &addr);
                }
                return;
            }
        }
    }
}
