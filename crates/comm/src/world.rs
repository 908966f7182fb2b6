//! Threads-as-ranks execution environment.
//!
//! A [`World`] is a *value*: [`World::new`] builds a reusable fabric of `p`
//! lazily-created point-to-point links, [`World::execute`] runs `p` ranks —
//! rank 0 on the calling thread, the others on parked rank runners leased
//! from [`summit_pool::run_parked`], no thread spawned once warm — each
//! holding a [`Rank`] handle onto that fabric plus a shared barrier, and
//! the same world can execute again afterwards.
//! [`World::execute_with_faults`] is the same run with a [`FaultPlan`]
//! installed, and [`World::last_traffic`] reports what the last run sent:
//! each rank counts its own traffic, and the execution sums the counts when
//! the ranks join. Channels are unbounded, so the classic "everyone sends
//! right then receives left" ring step cannot deadlock.
//!
//! Channels are created on first use per directed pair — a world of `p`
//! ranks that only ever rings pays for `p` links, not the `p²` an eager
//! matrix would mint — which is what makes hundreds of concurrent small
//! worlds per process affordable (the facility scenario in `summit-sched`).
//! Compute budgets come from the process-wide [`summit_pool::arbiter`]:
//! each execution leases a disjoint core budget for its lifetime, so
//! concurrently live worlds share the machine instead of each claiming an
//! `available_parallelism / p` slice of it.
//!
//! Messages carry a tag so that out-of-order sends between the same pair
//! (e.g. two collectives back to back) are matched correctly: every receive
//! runs one loop that pulls messages from the in-order channel and parks
//! any message whose tag does not match in a per-source pending queue.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use std::cell::{Cell, OnceCell, RefCell};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};

use crate::faults::{CommError, FaultPlan, FaultState, SendVerdict, CONTROL_BIT};

/// A tagged message between ranks. `checksum` is attached only when the
/// sender's fault plane is enabled (FNV-1a over the payload bits); `None`
/// means "unchecked", so the fault-free hot path pays nothing for it.
#[derive(Debug)]
struct Envelope {
    tag: u64,
    payload: Vec<f32>,
    checksum: Option<u64>,
}

/// FNV-1a over the payload's f32 bit patterns — the transport checksum the
/// fault plane uses to make corruption *detectable* (a corrupted message
/// surfaces as [`CommError::Corrupt`] from the checked receives instead of
/// silently poisoning a reduction).
fn payload_checksum(payload: &[f32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in payload {
        let bits = v.to_bits();
        for shift in [0, 8, 16, 24] {
            hash ^= u64::from((bits >> shift) as u8);
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
    }
    hash
}

/// Pending-queue depth at which [`Rank::recv`] logs a diagnostic: a queue
/// this deep almost always means a tag-mismatch bug parking messages that
/// will never be consumed.
const PARKED_WARN_THRESHOLD: usize = 1024;

/// Per-rank free list of recycled message payloads, bucketed by capacity
/// class (next power of two).
///
/// `send_from` draws its payload here instead of allocating, and
/// `recv_into`/`recv_with` return the received payload here instead of
/// dropping it. Under a ring collective every rank hands one buffer to its
/// right neighbour and recycles one from its left each step, so after a
/// one-round warm-up the pools circulate a fixed set of buffers and the
/// steady state allocates nothing.
#[derive(Debug, Default)]
pub struct BufferPool {
    /// `classes[c]` holds buffers whose capacity is in `[1 << c, 2 << c)`,
    /// so any buffer drawn from class `ceil(log2(len))` can hold `len`
    /// elements without growing.
    classes: RefCell<Vec<Vec<Vec<f32>>>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    outstanding: Cell<i64>,
}

/// Pool effectiveness counters for one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Buffer requests served from the free list.
    pub hits: u64,
    /// Buffer requests that had to allocate.
    pub misses: u64,
    /// Buffers drawn from this pool minus buffers returned to it. Negative
    /// values are legitimate under ring circulation: a rank retires the
    /// payloads minted by its left neighbour, so buffers migrate between
    /// per-rank pools while the world-wide sum stays balanced.
    pub outstanding: i64,
}

impl BufferPool {
    fn class_of(len: usize) -> usize {
        len.next_power_of_two().trailing_zeros() as usize
    }

    /// Take a buffer with `capacity >= len` and length 0, reusing a
    /// recycled one when available.
    fn acquire(&self, len: usize) -> Vec<f32> {
        let class = Self::class_of(len);
        self.outstanding.set(self.outstanding.get() + 1);
        let mut classes = self.classes.borrow_mut();
        if let Some(mut buf) = classes.get_mut(class).and_then(Vec::pop) {
            self.hits.set(self.hits.get() + 1);
            buf.clear();
            buf
        } else {
            self.misses.set(self.misses.get() + 1);
            drop(classes);
            Vec::with_capacity(len.next_power_of_two())
        }
    }

    /// Return a spent payload to the free list.
    fn release(&self, buf: Vec<f32>) {
        self.outstanding.set(self.outstanding.get() - 1);
        if buf.capacity() == 0 {
            return;
        }
        // Floor class: every buffer in class `c` has capacity >= 1 << c,
        // which is what `acquire`'s ceil-class lookup relies on.
        let class = (usize::BITS - 1 - buf.capacity().leading_zeros()) as usize;
        let mut classes = self.classes.borrow_mut();
        if classes.len() <= class {
            classes.resize_with(class + 1, Vec::new);
        }
        classes[class].push(buf);
    }

    fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            outstanding: self.outstanding.get(),
        }
    }
}

/// One directed link's slot in the [`Fabric`]. A slot starts unborn (no
/// channel, just this record); the first endpoint taken creates the channel
/// and parks the opposite endpoint for its owner. Each endpoint is taken at
/// most once: `tx` by the source rank, `rx` by the destination rank.
///
/// The `src_gone` / `dst_gone` flags preserve the eager matrix's failure
/// semantics under laziness: when a rank exits (normally or by panic) it
/// sweeps its slots, closing any endpoint its peers might still claim. A
/// receiver taken from a link whose source already departed is born
/// disconnected, so `recv` still panics with "a peer rank panicked" instead
/// of blocking forever on a channel the dead rank never opened.
#[derive(Default)]
struct LinkSlot {
    born: bool,
    src_gone: bool,
    dst_gone: bool,
    tx: Option<Sender<Envelope>>,
    rx: Option<Receiver<Envelope>>,
}

/// The reusable channel fabric of a [`World`]: `p²` lazily-born directed
/// links. Unborn slots cost one mutex'd record each; channels exist only
/// for pairs that actually communicated.
struct Fabric {
    size: usize,
    links: Vec<Mutex<LinkSlot>>,
    /// Channels actually created this execution (laziness witness).
    links_born: AtomicU64,
}

impl Fabric {
    fn new(p: usize) -> Self {
        Fabric {
            size: p,
            links: (0..p * p)
                .map(|_| Mutex::new(LinkSlot::default()))
                .collect(),
            links_born: AtomicU64::new(0),
        }
    }

    fn slot(&self, src: usize, dst: usize) -> &Mutex<LinkSlot> {
        &self.links[src * self.size + dst]
    }

    /// Claim the sender endpoint of link `src → dst`, creating the channel
    /// on first touch. Only rank `src` calls this, and only once (it caches
    /// the endpoint), so a missing endpoint is a bug, not a race.
    fn take_tx(&self, src: usize, dst: usize) -> Sender<Envelope> {
        let mut slot = self.slot(src, dst).lock().expect("fabric slot poisoned");
        if !slot.born {
            slot.born = true;
            self.links_born.fetch_add(1, Ordering::Relaxed);
            let (tx, rx) = unbounded();
            if !slot.dst_gone {
                slot.rx = Some(rx);
            }
            return tx;
        }
        slot.tx.take().expect("tx endpoint claimed twice")
    }

    /// Claim the receiver endpoint of link `src → dst`. If the source rank
    /// already departed without opening the link, the receiver is born
    /// disconnected (its sender is dropped at creation).
    fn take_rx(&self, src: usize, dst: usize) -> Receiver<Envelope> {
        let mut slot = self.slot(src, dst).lock().expect("fabric slot poisoned");
        if !slot.born {
            slot.born = true;
            self.links_born.fetch_add(1, Ordering::Relaxed);
            let (tx, rx) = unbounded();
            if !slot.src_gone {
                slot.tx = Some(tx);
            }
            return rx;
        }
        slot.rx.take().expect("rx endpoint claimed twice")
    }

    /// Rank exit sweep: close every endpoint of `rank`'s links that no one
    /// claimed, and flag unborn links so endpoints claimed later are born
    /// closed. Runs on normal completion and during unwind alike
    /// ([`Rank`]'s `Drop`), which is what keeps "a peer rank panicked"
    /// disconnect panics working under lazy link creation.
    fn depart(&self, rank: usize) {
        for other in 0..self.size {
            if other == rank {
                continue;
            }
            {
                let mut out = self.slot(rank, other).lock().expect("fabric slot poisoned");
                out.src_gone = true;
                out.tx.take();
            }
            {
                let mut inc = self.slot(other, rank).lock().expect("fabric slot poisoned");
                inc.dst_gone = true;
                inc.rx.take();
            }
        }
    }

    /// Forget the previous execution: every slot back to unborn. Requires
    /// exclusive access, which [`World::execute`] proves via `Arc::get_mut`
    /// (no `Rank` handle outlives its execution).
    fn reset(&mut self) {
        for slot in &mut self.links {
            *slot.get_mut().expect("fabric slot poisoned") = LinkSlot::default();
        }
        *self.links_born.get_mut() = 0;
    }
}

/// A handle held by one rank (thread) of a [`World`].
pub struct Rank {
    id: usize,
    size: usize,
    world_id: u64,
    fabric: Arc<Fabric>,
    senders: Vec<OnceCell<Sender<Envelope>>>,
    receivers: Vec<OnceCell<Receiver<Envelope>>>,
    pending: Vec<RefCell<VecDeque<Envelope>>>,
    barrier: Arc<Barrier>,
    /// Fault-injection plane; `None` outside chaos runs, making every hook
    /// a single never-taken branch (the hot-path allocator test pins this).
    faults: Option<FaultState>,
    pool: BufferPool,
    /// This rank's traffic so far (Cell: a `Rank` is `!Sync` by design).
    traffic: Cell<TrafficStats>,
}

/// How a receive waits for a message that has not arrived yet.
#[derive(Clone, Copy)]
enum Wait {
    /// Return `None` at once.
    Poll,
    /// Block until the deadline, then fail with [`CommError::Timeout`].
    Until(Instant),
    /// Block until the message arrives.
    Forever,
}

/// Panic message of the infallible receives when the peer is gone.
const HUNG_UP: &str = "sender hung up: a peer rank panicked";

impl Rank {
    /// This rank's index in `0..size()`.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Id of the [`World`] this rank belongs to (process-unique). Multi-
    /// world failures are attributed with this id.
    pub fn world_id(&self) -> u64 {
        self.world_id
    }

    /// The sender endpoint toward rank `to`, claimed from the fabric on
    /// first use and cached (one branch on the hot path thereafter).
    fn sender(&self, to: usize) -> &Sender<Envelope> {
        self.senders[to].get_or_init(|| self.fabric.take_tx(self.id, to))
    }

    /// The receiver endpoint from rank `from`, claimed on first use.
    fn receiver(&self, from: usize) -> &Receiver<Envelope> {
        self.receivers[from].get_or_init(|| self.fabric.take_rx(from, self.id))
    }

    /// Add to this rank's traffic counters.
    fn count(&self, f: impl FnOnce(&mut TrafficStats)) {
        let mut t = self.traffic.get();
        f(&mut t);
        self.traffic.set(t);
    }

    /// Send `payload` to rank `to` with `tag`.
    ///
    /// When a fault plane is installed ([`World::execute_with_faults`]), the
    /// plan may drop, delay, or corrupt the message; a transport checksum is
    /// attached so corruption is detectable by the checked receives.
    ///
    /// # Panics
    /// Panics if `to` is out of range or equals this rank.
    pub fn send(&self, to: usize, tag: u64, mut payload: Vec<f32>) {
        assert!(to < self.size, "destination rank out of range");
        assert_ne!(to, self.id, "self-sends are not supported");
        self.count(|t| {
            t.messages_sent += 1;
            t.bytes_sent += (payload.len() * 4) as u64;
        });
        let mut checksum = None;
        if let Some(faults) = &self.faults {
            if tag & CONTROL_BIT == 0 {
                checksum = Some(payload_checksum(&payload));
                let verdict = faults.on_send(to, tag);
                if verdict != SendVerdict::Deliver {
                    self.count(|t| t.faults_injected += 1);
                }
                match verdict {
                    SendVerdict::Deliver => {}
                    SendVerdict::Drop => {
                        // The link ate it: recycle the buffer locally so the
                        // pool books stay balanced, deliver nothing.
                        self.pool.release(payload);
                        return;
                    }
                    SendVerdict::DelayThenDeliver(d) => std::thread::sleep(d),
                    SendVerdict::CorruptThenDeliver => {
                        // Flip one mantissa bit after checksumming, so the
                        // receiver's verify fails. Empty payloads corrupt
                        // the checksum itself instead.
                        match payload.len() {
                            0 => checksum = checksum.map(|c| c ^ 1),
                            n => {
                                let bits = payload[n / 2].to_bits() ^ 0x0040_0000;
                                payload[n / 2] = f32::from_bits(bits);
                            }
                        }
                    }
                }
            }
        }
        self.sender(to)
            .send(Envelope {
                tag,
                payload,
                checksum,
            })
            .expect("receiver hung up: a peer rank panicked");
    }

    /// The one receive loop behind every receive: take the first message
    /// from rank `from` carrying `tag` — from the pending queue if one is
    /// parked there, else off the channel, parking every mismatched tag it
    /// pulls on the way. `Ok(None)` only under [`Wait::Poll`].
    ///
    /// It neither verifies checksums nor polls kills; the checked shells
    /// do that around it, so the unchecked hot path pays for neither.
    #[inline]
    fn take(&self, from: usize, tag: u64, wait: Wait) -> Result<Option<Envelope>, CommError> {
        assert!(from < self.size, "source rank out of range");
        assert_ne!(from, self.id, "self-receives are not supported");
        let mut pending = self.pending[from].borrow_mut();
        if let Some(pos) = pending.iter().position(|e| e.tag == tag) {
            return Ok(pending.remove(pos));
        }
        let rx = self.receiver(from);
        let gone = CommError::Disconnected { from };
        loop {
            let env = match wait {
                Wait::Poll => match rx.try_recv() {
                    Ok(env) => env,
                    Err(TryRecvError::Empty) => return Ok(None),
                    Err(TryRecvError::Disconnected) => return Err(gone),
                },
                Wait::Until(deadline) => rx.recv_deadline(deadline).map_err(|e| match e {
                    RecvTimeoutError::Timeout => CommError::Timeout { from, tag },
                    RecvTimeoutError::Disconnected => gone.clone(),
                })?,
                Wait::Forever => rx.recv().map_err(|_| gone.clone())?,
            };
            if env.tag == tag {
                return Ok(Some(env));
            }
            self.park(&mut pending, from, env);
        }
    }

    /// Hand back a checked envelope's payload, or — when its transport
    /// checksum fails — recycle the payload and report the corruption, so
    /// a retry does not trip over it again.
    fn verified(&self, from: usize, env: Envelope) -> Result<Vec<f32>, CommError> {
        match env.checksum {
            Some(sum) if payload_checksum(&env.payload) != sum => {
                self.pool.release(env.payload);
                Err(CommError::Corrupt { from, tag: env.tag })
            }
            _ => Ok(env.payload),
        }
    }

    /// Receive the next message from rank `from` carrying `tag`, blocking
    /// until it arrives. Messages with other tags are buffered.
    ///
    /// # Panics
    /// Panics if `from` is out of range, equals this rank, or the sending
    /// rank disconnected (panicked) before sending.
    pub fn recv(&self, from: usize, tag: u64) -> Vec<f32> {
        match self.take(from, tag, Wait::Forever) {
            Ok(Some(env)) => env.payload,
            _ => panic!("{HUNG_UP}"),
        }
    }

    /// Park a tag-mismatched message, counting it and logging when the
    /// queue depth is suspicious (a message parked forever is invisible
    /// without this: the matching `recv` simply never completes).
    fn park(&self, pending: &mut VecDeque<Envelope>, from: usize, env: Envelope) {
        self.count(|t| t.messages_parked += 1);
        pending.push_back(env);
        if pending.len() == PARKED_WARN_THRESHOLD {
            debug_assert!(
                self.faults.is_some(),
                "rank {}: {} messages from rank {from} parked on mismatched tags \
                 without a fault plane — likely a tag-schedule bug",
                self.id,
                pending.len(),
            );
            eprintln!(
                "summit-comm: rank {} has parked {} messages from rank {from} \
                 (front tag {:#x}); mismatched-tag receives may be stuck",
                self.id,
                pending.len(),
                pending.front().map_or(0, |e| e.tag),
            );
        }
    }

    /// Nonblocking receive: return the next message from rank `from`
    /// carrying `tag` if one has already arrived, or `None` without
    /// blocking. Messages with other tags encountered while polling are
    /// parked in the same per-source pending queue [`Rank::recv`] uses, so
    /// the two can be mixed freely on one tag namespace.
    ///
    /// # Panics
    /// Panics if `from` is out of range, equals this rank, or the sending
    /// rank disconnected (panicked) before sending.
    pub fn try_recv(&self, from: usize, tag: u64) -> Option<Vec<f32>> {
        let env = self.take(from, tag, Wait::Poll).expect(HUNG_UP);
        env.map(|env| env.payload)
    }

    /// Checked receive: like [`Rank::recv`] but fallible — it verifies the
    /// transport checksum, honors this rank's scheduled kill, and (when
    /// `deadline` is set) gives up instead of blocking forever. A corrupt
    /// envelope is consumed (and its buffer recycled) before the error
    /// returns, so a retry does not trip over it again.
    ///
    /// This is the primitive that keeps chaos runs live: a dropped message
    /// surfaces as [`CommError::Timeout`] here instead of hanging the rank.
    ///
    /// # Errors
    /// [`CommError::Timeout`], [`CommError::Corrupt`],
    /// [`CommError::RankKilled`], or [`CommError::Disconnected`].
    ///
    /// # Panics
    /// Panics if `from` is out of range or equals this rank.
    pub fn recv_checked(
        &self,
        from: usize,
        tag: u64,
        deadline: Option<Instant>,
    ) -> Result<Vec<f32>, CommError> {
        self.poll_fault_kill()?;
        let wait = deadline.map_or(Wait::Forever, Wait::Until);
        let env = self
            .take(from, tag, wait)?
            .expect("a blocking receive yields a message");
        self.verified(from, env)
    }

    /// Checked nonblocking receive: `Ok(None)` when no matching message has
    /// arrived yet; checksum and kill failures surface as errors exactly as
    /// in [`Rank::recv_checked`].
    ///
    /// # Errors
    /// [`CommError::Corrupt`] or [`CommError::RankKilled`].
    ///
    /// # Panics
    /// Panics on the same conditions as [`Rank::try_recv`].
    pub fn try_recv_checked(&self, from: usize, tag: u64) -> Result<Option<Vec<f32>>, CommError> {
        self.poll_fault_kill()?;
        match self.take(from, tag, Wait::Poll).expect(HUNG_UP) {
            None => Ok(None),
            Some(env) => self.verified(from, env).map(Some),
        }
    }

    /// If a fault plane is installed and this rank is scheduled to die at
    /// its current step, claim the kill and return
    /// [`CommError::RankKilled`]. A no-op (always `Ok`) otherwise.
    ///
    /// # Errors
    /// [`CommError::RankKilled`] exactly once per scheduled kill.
    pub fn poll_fault_kill(&self) -> Result<(), CommError> {
        let killed = self.faults.as_ref().map_or(Ok(()), FaultState::poll_kill);
        if killed.is_err() {
            self.count(|t| t.faults_injected += 1);
        }
        killed
    }

    /// Tell the fault plane which application step this rank is executing;
    /// [`FaultPlan`] events are keyed on it. A no-op without a plane.
    pub fn set_fault_step(&self, step: u64) {
        if let Some(f) = &self.faults {
            f.set_step(step);
        }
    }

    /// Discard every message currently addressed to this rank — parked and
    /// in-flight alike — recycling the payloads into this rank's pool, and
    /// return how many were drained.
    ///
    /// Recovery uses this between barriers to clear the fabric of stale
    /// traffic from an aborted step, so the replay's tag matching starts
    /// from a clean slate and the pool books stay balanced.
    ///
    /// The sweep runs to a fixpoint: after a pass that drains anything, the
    /// queues are swept again until a full pass finds nothing. A single pass
    /// is enough for traffic that was posted before the surrounding barrier
    /// (the channels are unbounded, so a send completes synchronously), but
    /// an abandoned nonblocking handle poked *between* the two quiesce
    /// barriers can inject a fresh envelope after its source queue was
    /// already swept — the fixpoint makes the drain insensitive to sweep
    /// order relative to such stragglers.
    pub fn drain_all(&self) -> usize {
        let mut drained = 0;
        loop {
            let mut pass = 0;
            for from in 0..self.size {
                if from == self.id {
                    continue;
                }
                // Sweep data traffic only: control-plane messages
                // (CONTROL_BIT) are the reliable out-of-band network, and
                // a peer that finished its own drain may already be into
                // its next control exchange — eating its token would
                // deadlock the quiesce.
                let mut pending = self.pending[from].borrow_mut();
                let mut keep = VecDeque::with_capacity(pending.len());
                while let Some(env) = pending.pop_front() {
                    if env.tag & CONTROL_BIT != 0 {
                        keep.push_back(env);
                    } else {
                        self.pool.release(env.payload);
                        pass += 1;
                    }
                }
                *pending = keep;
                while let Ok(env) = self.receiver(from).try_recv() {
                    if env.tag & CONTROL_BIT != 0 {
                        pending.push_back(env);
                    } else {
                        self.pool.release(env.payload);
                        pass += 1;
                    }
                }
            }
            drained += pass;
            if pass == 0 {
                return drained;
            }
        }
    }

    /// Return a finished transport payload to this rank's [`BufferPool`].
    /// Used by the nonblocking layer, whose handles hold payloads across
    /// calls and cannot release them inside a `recv_with` closure, and by
    /// elastic control flows that take ownership via [`Rank::try_recv`].
    pub fn release_payload(&self, payload: Vec<f32>) {
        self.pool.release(payload);
    }

    /// Simultaneously send to `to` and receive from `from` (the ring step).
    pub fn send_recv(&self, to: usize, from: usize, tag: u64, payload: Vec<f32>) -> Vec<f32> {
        self.send(to, tag, payload);
        self.recv(from, tag)
    }

    /// Send a copy of `src` to rank `to`, drawing the payload from this
    /// rank's [`BufferPool`] instead of allocating.
    ///
    /// # Panics
    /// Panics if `to` is out of range or equals this rank.
    pub fn send_from(&self, to: usize, tag: u64, src: &[f32]) {
        let mut payload = self.pool.acquire(src.len());
        payload.extend_from_slice(src);
        self.send(to, tag, payload);
    }

    /// Receive the next message from rank `from` carrying `tag` into `dst`,
    /// recycling the transport buffer into this rank's [`BufferPool`].
    ///
    /// # Panics
    /// Panics on the same conditions as [`Rank::recv`], or if the payload
    /// length differs from `dst.len()`.
    pub fn recv_into(&self, from: usize, tag: u64, dst: &mut [f32]) {
        let payload = self.recv(from, tag);
        assert_eq!(
            payload.len(),
            dst.len(),
            "recv_into: payload length mismatch"
        );
        dst.copy_from_slice(&payload);
        self.pool.release(payload);
    }

    /// Receive from rank `from` with `tag` and hand the payload to `f` by
    /// reference, recycling the transport buffer afterwards. This is the
    /// zero-copy receive: reductions fold straight out of the payload
    /// without an intermediate copy.
    ///
    /// # Panics
    /// Panics on the same conditions as [`Rank::recv`].
    pub fn recv_with<R>(&self, from: usize, tag: u64, f: impl FnOnce(&[f32]) -> R) -> R {
        let payload = self.recv(from, tag);
        let out = f(&payload);
        self.pool.release(payload);
        out
    }

    /// This rank's buffer-pool hit/miss counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// This rank's own traffic so far in this execution, for strict
    /// comparison against the engine's modeled run ([`crate::sim::simulate`]
    /// reports the same quantities per rank). Sends are counted at post
    /// time — before the fault plane's drop hook — so an injected drop
    /// still counts as a send, matching the model's accounting. The world's
    /// [`World::last_traffic`] is the sum of these over its ranks.
    pub fn traffic(&self) -> TrafficStats {
        self.traffic.get()
    }

    /// Block until every rank has reached this barrier.
    pub fn barrier(&self) {
        self.barrier.wait();
    }
}

impl Drop for Rank {
    /// Exit sweep: close the fabric endpoints peers might still claim. This
    /// runs during unwind too, so a panicking rank disconnects all its
    /// links — the cached endpoints below drop right after this body, and
    /// the sweep closes the unclaimed rest — and every peer blocked on this
    /// rank observes "a peer rank panicked" instead of hanging.
    fn drop(&mut self) {
        self.fabric.depart(self.id);
    }
}

/// A membership view of a [`World`]: the subset of physical ranks currently
/// participating in collectives, at a given membership `epoch`.
///
/// Elastic recovery shrinks a world by *excluding* a dead rank instead of
/// rolling back: survivors adopt a new view whose dense ids `0..size()`
/// remap onto the surviving physical ranks, re-derive their collective
/// schedules at the smaller size (every schedule is a pure function of
/// `(size, dense id)`), and keep training. The inverse hot-join grows the
/// view back to the full world. The epoch is folded into every tag the
/// view's collectives and control messages use, so traffic from different
/// membership generations can never satisfy each other's receives — a
/// straggler envelope from before a shrink is inert, and `drain_all`
/// recycles it.
///
/// A view never exceeds the physical world: membership is a sorted subset
/// of `0..world_size`, and physical channel indices stay valid across
/// shrink/grow, so no channels are torn down or rebuilt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldView {
    /// Sorted physical rank ids of the current members.
    members: Vec<usize>,
    /// This rank's *physical* id (fixed for the life of the world).
    me: usize,
    /// Membership generation; bumped by every shrink or grow.
    epoch: u64,
}

/// Epochs are folded into tags through a 12-bit mask: 4096 membership
/// changes before wraparound, far beyond any test or plausible run.
const EPOCH_MASK: u64 = 0xfff;

impl WorldView {
    /// The full-world view at epoch 0: every physical rank is a member.
    /// Epoch 0 tags are identical to the classic (non-elastic) tag scheme,
    /// so a view-based collective at full membership is bit- and
    /// traffic-identical to the plain one.
    pub fn full(rank: &Rank) -> Self {
        Self {
            members: (0..rank.size()).collect(),
            me: rank.id(),
            epoch: 0,
        }
    }

    /// Assemble a view from an explicit member list (sorted, deduplicated
    /// physical ids) at an explicit epoch. `me` is this rank's physical id;
    /// it does not have to be a member (spectators hold views too, to know
    /// the current epoch).
    ///
    /// # Panics
    /// Panics if `members` is empty or not strictly increasing.
    pub fn assemble(members: Vec<usize>, me: usize, epoch: u64) -> Self {
        assert!(!members.is_empty(), "a view needs at least one member");
        assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "view members must be sorted and unique"
        );
        Self { members, me, epoch }
    }

    /// Number of member ranks (the collective size `p'`).
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Membership generation.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Sorted physical ids of the members.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Whether physical rank `id` is a member.
    pub fn is_member(&self, id: usize) -> bool {
        self.members.binary_search(&id).is_ok()
    }

    /// This rank's dense id in `0..size()`, or `None` when this rank is a
    /// spectator (not a member).
    pub fn my_index(&self) -> Option<usize> {
        self.members.binary_search(&self.me).ok()
    }

    /// Map a dense member index back to the physical rank id.
    ///
    /// # Panics
    /// Panics if `dense` is out of range.
    pub fn physical(&self, dense: usize) -> usize {
        self.members[dense]
    }

    /// The shrunk view: keep only `survivors` (given as a membership mask
    /// over the *current* dense ids), bump the epoch.
    ///
    /// # Panics
    /// Panics if the mask length differs from `size()` or no rank survives.
    pub fn shrink_to(&self, survivors: &[bool]) -> Self {
        assert_eq!(survivors.len(), self.size(), "survivor mask length");
        let members: Vec<usize> = self
            .members
            .iter()
            .zip(survivors)
            .filter_map(|(&m, &alive)| alive.then_some(m))
            .collect();
        assert!(!members.is_empty(), "world collapsed: no surviving ranks");
        Self {
            members,
            me: self.me,
            epoch: self.epoch + 1,
        }
    }

    /// The grown view: back to full world membership at the next epoch.
    pub fn grow_full(&self, world_size: usize) -> Self {
        Self {
            members: (0..world_size).collect(),
            me: self.me,
            epoch: self.epoch + 1,
        }
    }

    /// Tag namespace for *blocking* collectives at this epoch, to be OR'd
    /// into the collective id passed to the schedule constructors. Epoch 0
    /// maps to namespace 0, i.e. the classic tags. The namespace occupies
    /// bits 7..19 of the collective id — clear of the low ids 0..4 the ring
    /// constructors use, and small enough that the composed
    /// `tag_seg(id, step, seg)` stays below [`crate::CONTROL_BIT`].
    pub fn blocking_ns(&self) -> u64 {
        (self.epoch & EPOCH_MASK) << 7
    }

    /// Tag namespace for *nonblocking* collectives at this epoch, to be
    /// OR'd into the collective (bucket) index. Bucket indices are small
    /// (thousands at most); the epoch occupies bits 20..32 of the
    /// collective field, keeping the composed tag inside the 50-bit
    /// collective budget of the nonblocking tag scheme.
    pub fn nb_ns(&self) -> u64 {
        (self.epoch & EPOCH_MASK) << 20
    }
}

/// Traffic counters: one rank's ([`Rank::traffic`]) or, summed over the
/// ranks, one execution's ([`World::last_traffic`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Payload bytes sent (4 bytes per f32 element).
    pub bytes_sent: u64,
    /// Messages sent.
    pub messages_sent: u64,
    /// Messages parked at least once on a mismatched tag.
    /// A nonzero value under a strictly in-order tag schedule points at a
    /// tag-matching bug; persistent growth points at messages parked
    /// forever.
    pub messages_parked: u64,
    /// Fault events actually injected by the plan (always 0 without a
    /// fault plane). Chaos tests cross-check this against
    /// [`FaultPlan::fired_count`].
    pub faults_injected: u64,
}

/// A world of `p` ranks: a reusable lazy channel fabric plus a barrier,
/// executed on demand on the caller and `p − 1` leased rank runners.
///
/// Construction is cheap (no channels are created until ranks talk), so a
/// scheduler can hold hundreds of live worlds in one process; each
/// [`World::execute`] leases its compute budget from the process-wide
/// [`summit_pool::arbiter`] for exactly the duration of the execution. The
/// world survives its executions — running the same `World` again reuses
/// the fabric allocation with all links reset to unborn.
pub struct World {
    size: usize,
    id: u64,
    fabric: Arc<Fabric>,
    barrier: Arc<Barrier>,
    last_stats: TrafficStats,
}

/// Process-unique world ids, for failure attribution across many worlds.
static NEXT_WORLD_ID: AtomicU64 = AtomicU64::new(0);

impl World {
    /// A new world of `p` ranks. No threads are spawned and no channels
    /// created until [`World::execute`].
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn new(p: usize) -> Self {
        assert!(p > 0, "world size must be positive");
        World {
            size: p,
            id: NEXT_WORLD_ID.fetch_add(1, Ordering::Relaxed),
            fabric: Arc::new(Fabric::new(p)),
            barrier: Arc::new(Barrier::new(p)),
            last_stats: TrafficStats::default(),
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Process-unique id of this world (also reported by
    /// [`Rank::world_id`] and in join-failure panics).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Directed channels the most recent execution actually created — the
    /// laziness witness (an eager matrix would always report `p·(p−1)`).
    pub fn links_created(&self) -> u64 {
        self.fabric.links_born.load(Ordering::Relaxed)
    }

    /// Traffic statistics of the most recent execution (zeros before the
    /// first): the sum of every rank's [`Rank::traffic`] at join. Stats are
    /// per-execution and per-world — concurrent worlds never see each
    /// other's counters — and this is the one place they are read.
    pub fn last_traffic(&self) -> TrafficStats {
        self.last_stats
    }

    /// Run `f` on this world's `p` ranks and collect each rank's return
    /// value, ordered by rank id. Rank 0 runs on the calling thread, ranks
    /// `1..p` on parked rank runners; every rank runs under the lease's
    /// core budget, and the caller's own budget is restored on return. The
    /// world is reusable afterwards.
    ///
    /// # Panics
    /// Panics if any rank's closure panics; the message names this world
    /// and the first panicking rank.
    pub fn execute<F, R>(&mut self, f: F) -> Vec<R>
    where
        F: Fn(&Rank) -> R + Sync,
        R: Send,
    {
        self.execute_inner(None, f)
    }

    /// [`World::execute`] with the given [`FaultPlan`] installed: sends
    /// consult the plan (drops, delays, corruptions), checked receives poll
    /// for scheduled rank kills, and transport checksums are attached to
    /// every data-plane message.
    ///
    /// The plan is shared — its one-shot event state is visible to the
    /// caller afterwards (e.g. [`FaultPlan::fired_count`]).
    ///
    /// # Panics
    /// As [`World::execute`].
    pub fn execute_with_faults<F, R>(&mut self, plan: Arc<FaultPlan>, f: F) -> Vec<R>
    where
        F: Fn(&Rank) -> R + Sync,
        R: Send,
    {
        self.execute_inner(Some(plan), f)
    }

    fn execute_inner<F, R>(&mut self, plan: Option<Arc<FaultPlan>>, f: F) -> Vec<R>
    where
        F: Fn(&Rank) -> R + Sync,
        R: Send,
    {
        let p = self.size;
        // Between executions the fabric has exactly one owner (every Rank
        // dropped before its execution finished); reclaim it mutably to
        // reset all links to unborn without locking.
        Arc::get_mut(&mut self.fabric)
            .expect("a Rank handle outlived its execution")
            .reset();

        // Lease this execution's compute budget from the process-wide
        // arbiter: each rank's tensor kernels dispatch onto the shared
        // `summit_pool` worker pool under a disjoint per-rank budget. With
        // one live world this is the classic even `machine / p` share; with
        // many, the worlds split the machine instead of each claiming all
        // of it. The lease is RAII, so no exit from this frame leaks it.
        let lease = summit_pool::arbiter().lease(p);
        let budget = lease.per_rank_budget();
        let world_id = self.id;
        let (fabric, barrier) = (&self.fabric, &self.barrier);
        // Rank 0 runs on this thread, the rest on leased rank runners. Each
        // `Rank` is built and dropped on its own thread inside its index, so
        // a panicking rank's exit sweep has disconnected its peers before
        // its index counts as finished.
        let joined = summit_pool::run_parked(p, |id| {
            let rank = Rank {
                id,
                size: p,
                world_id,
                fabric: Arc::clone(fabric),
                senders: (0..p).map(|_| OnceCell::new()).collect(),
                receivers: (0..p).map(|_| OnceCell::new()).collect(),
                pending: (0..p).map(|_| RefCell::new(VecDeque::new())).collect(),
                barrier: Arc::clone(barrier),
                faults: plan.as_ref().map(|pl| FaultState::new(Arc::clone(pl), id)),
                pool: BufferPool::default(),
                traffic: Cell::default(),
            };
            let out = summit_pool::with_core_budget(budget, || f(&rank));
            (out, rank.traffic())
        });
        drop(lease);
        let mut results = Vec::with_capacity(p);
        let mut stats = TrafficStats::default();
        for (rank_id, joined_rank) in joined.into_iter().enumerate() {
            match joined_rank {
                Ok((r, t)) => {
                    results.push(r);
                    stats.bytes_sent += t.bytes_sent;
                    stats.messages_sent += t.messages_sent;
                    stats.messages_parked += t.messages_parked;
                    stats.faults_injected += t.faults_injected;
                }
                Err(payload) => {
                    // Attribute the failure: with hundreds of worlds in one
                    // process, "a rank panicked" alone is undebuggable.
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "<non-string panic payload>".to_string());
                    panic!("world {world_id}: a rank panicked (rank {rank_id} of {p}): {msg}");
                }
            }
        }
        self.last_stats = stats;
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A receive deadline `ms` milliseconds from now.
    fn after_ms(ms: u64) -> Instant {
        Instant::now() + Duration::from_millis(ms)
    }

    #[test]
    fn single_rank_world() {
        let out = World::new(1).execute(|r| {
            assert_eq!(r.size(), 1);
            r.barrier();
            r.id()
        });
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn point_to_point_roundtrip() {
        let out = World::new(2).execute(|r| {
            if r.id() == 0 {
                r.send(1, 7, vec![1.0, 2.0, 3.0]);
                r.recv(1, 8)
            } else {
                let got = r.recv(0, 7);
                r.send(0, 8, got.iter().map(|x| x * 2.0).collect());
                vec![]
            }
        });
        assert_eq!(out[0], vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn tags_demultiplex_out_of_order() {
        let out = World::new(2).execute(|r| {
            if r.id() == 0 {
                // Send tag 2 first, then tag 1.
                r.send(1, 2, vec![2.0]);
                r.send(1, 1, vec![1.0]);
                vec![]
            } else {
                // Receive tag 1 first: the tag-2 message must be parked.
                let a = r.recv(0, 1);
                let b = r.recv(0, 2);
                vec![a[0], b[0]]
            }
        });
        assert_eq!(out[1], vec![1.0, 2.0]);
    }

    #[test]
    fn ring_send_recv_rotates() {
        let p = 5;
        let out = World::new(p).execute(|r| {
            let right = (r.id() + 1) % p;
            let left = (r.id() + p - 1) % p;
            let got = r.send_recv(right, left, 0, vec![r.id() as f32]);
            got[0]
        });
        for (id, v) in out.iter().enumerate() {
            assert_eq!(*v, ((id + p - 1) % p) as f32);
        }
    }

    #[test]
    fn traffic_stats_count_payload_bytes() {
        let mut world = World::new(2);
        world.execute(|r| {
            if r.id() == 0 {
                r.send(1, 0, vec![0.0; 100]);
            } else {
                let _ = r.recv(0, 0);
            }
        });
        let stats = world.last_traffic();
        assert_eq!(stats.bytes_sent, 400);
        assert_eq!(stats.messages_sent, 1);
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        World::new(8).execute(|r| {
            counter.fetch_add(1, Ordering::SeqCst);
            r.barrier();
            // After the barrier every increment must be visible.
            assert_eq!(counter.load(Ordering::SeqCst), 8);
        });
    }

    #[test]
    fn ranks_get_disjoint_core_budgets() {
        let p = 4;
        let budgets = World::new(p).execute(|_r| summit_pool::core_budget());
        // Budgets now come from the arbiter: a solo world gets the classic
        // even share, but sibling tests execute worlds concurrently in this
        // process, so the grant here may be anywhere between the inline
        // floor (1) and that share — uniform across ranks either way.
        let ceiling = summit_pool::rank_budget_from_env(p);
        assert!(
            budgets.windows(2).all(|w| w[0] == w[1]),
            "every rank gets the same share: {budgets:?}"
        );
        assert!(
            budgets.iter().all(|&b| (1..=ceiling).contains(&b)),
            "budget within [1, even share]: {budgets:?} vs ceiling {ceiling}"
        );
    }

    #[test]
    fn solo_world_budget_is_the_even_share() {
        // Pin down the single-world grant without inter-test interference
        // by asking a private arbiter instead of the global one.
        let arb = summit_pool::CoreArbiter::with_capacity(summit_pool::machine_parallelism());
        for p in [1usize, 2, 4, 8] {
            let lease = arb.lease(p);
            assert_eq!(
                lease.per_rank_budget(),
                summit_pool::rank_budget(summit_pool::machine_parallelism(), p, None),
                "solo world of {p} ranks"
            );
        }
    }

    #[test]
    fn fabric_creates_only_used_links() {
        let p = 6;
        let mut world = World::new(p);
        assert_eq!(world.links_created(), 0, "construction opens no channels");
        world.execute(|r| {
            let right = (r.id() + 1) % p;
            let left = (r.id() + p - 1) % p;
            let got = r.send_recv(right, left, 0, vec![r.id() as f32]);
            assert_eq!(got[0], left as f32);
        });
        // A ring touches exactly p directed pairs; the eager matrix minted
        // p·(p−1) = 30.
        assert_eq!(world.links_created(), p as u64, "lazy fabric");
    }

    #[test]
    fn world_is_reusable_and_resets_per_execution() {
        let p = 3;
        let mut world = World::new(p);
        let mut outs = Vec::new();
        let mut stats = Vec::new();
        for _ in 0..3 {
            outs.push(world.execute(|r| {
                let right = (r.id() + 1) % p;
                let left = (r.id() + p - 1) % p;
                let got = r.send_recv(right, left, 7, vec![r.id() as f32; 16]);
                got[0]
            }));
            stats.push(world.last_traffic());
        }
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[1], outs[2]);
        // Stats are per-execution, not cumulative across reuses.
        assert_eq!(stats[0], stats[1]);
        assert_eq!(stats[1], stats[2]);
        assert_eq!(stats[0].messages_sent, p as u64);
    }

    #[test]
    fn worlds_have_unique_ids_and_ranks_know_theirs() {
        let a = World::new(2);
        let b = World::new(2);
        assert_ne!(a.id(), b.id());
        let mut c = World::new(2);
        let cid = c.id();
        let seen = c.execute(|r| r.world_id());
        assert!(seen.iter().all(|&w| w == cid));
    }

    #[test]
    fn join_failure_names_world_and_rank() {
        let mut world = World::new(3);
        let wid = world.id();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            world.execute(|r| {
                r.barrier();
                if r.id() == 2 {
                    panic!("deliberate test failure");
                }
            });
        }));
        let payload = result.expect_err("rank 2 panicked");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("formatted panic message");
        assert!(msg.contains("a rank panicked"), "compat substring: {msg}");
        assert!(msg.contains(&format!("world {wid}")), "world id: {msg}");
        assert!(msg.contains("rank 2"), "rank id: {msg}");
        assert!(msg.contains("deliberate test failure"), "payload: {msg}");
    }

    #[test]
    fn recv_from_rank_that_never_opened_the_link_panics() {
        // Rank 1 exits without ever sending to rank 0; rank 0's lazy recv
        // must observe the departure as a disconnect, not a hang.
        let result = std::panic::catch_unwind(|| {
            World::new(2).execute(|r| {
                if r.id() == 0 {
                    let _ = r.recv(1, 42);
                }
                // rank 1 returns immediately: its Drop sweeps the fabric.
            });
        });
        assert!(result.is_err(), "departed peer must disconnect lazy links");
    }

    #[test]
    fn concurrent_worlds_isolate_traffic_stats() {
        let joined = summit_pool::run_parked(4, |w| {
            let msgs = 1 + w as u64; // distinct per world
            let mut world = World::new(2);
            world.execute(move |r| {
                if r.id() == 0 {
                    for k in 0..msgs {
                        r.send(1, k, vec![0.0; 8]);
                    }
                } else {
                    for k in 0..msgs {
                        let _ = r.recv(0, k);
                    }
                }
            });
            world.last_traffic()
        });
        for (w, stats) in joined.into_iter().enumerate() {
            let stats = stats.expect("world ran");
            assert_eq!(
                stats.messages_sent,
                1 + w as u64,
                "world {w} sees only its own traffic"
            );
            assert_eq!(stats.bytes_sent, (1 + w as u64) * 32);
        }
    }

    #[test]
    fn pooled_ring_step_reuses_buffers() {
        let p = 4;
        let rounds = 32;
        let out = World::new(p).execute(|r| {
            let right = (r.id() + 1) % p;
            let left = (r.id() + p - 1) % p;
            let src = vec![r.id() as f32; 256];
            let mut dst = vec![0.0f32; 256];
            for round in 0..rounds {
                r.send_from(right, round, &src);
                r.recv_into(left, round, &mut dst);
                assert_eq!(dst[0], left as f32);
            }
            r.barrier();
            r.pool_stats()
        });
        for stats in out {
            // One miss to mint the first buffer; every later round reuses
            // the buffer recycled from the left neighbour.
            assert_eq!(stats.misses, 1, "pool stats: {stats:?}");
            assert_eq!(stats.hits, rounds - 1, "pool stats: {stats:?}");
        }
    }

    #[test]
    fn recv_into_checks_length() {
        let result = std::panic::catch_unwind(|| {
            World::new(2).execute(|r| {
                if r.id() == 0 {
                    r.send_from(1, 0, &[1.0, 2.0]);
                } else {
                    let mut dst = [0.0f32; 3];
                    r.recv_into(0, 0, &mut dst);
                }
            });
        });
        assert!(result.is_err(), "length mismatch must panic");
    }

    #[test]
    fn pool_classes_round_capacity_correctly() {
        let pool = BufferPool::default();
        // A released odd-capacity buffer must only satisfy requests it can
        // actually hold without growing.
        let mut odd = Vec::with_capacity(5);
        odd.push(1.0f32);
        pool.release(odd);
        let got = pool.acquire(8);
        assert!(got.capacity() >= 8, "capacity {}", got.capacity());
        assert_eq!(
            pool.stats(),
            PoolStats {
                hits: 0,
                misses: 1,
                outstanding: 0,
            }
        );
        let got2 = pool.acquire(4);
        assert!(got2.capacity() >= 4);
        assert_eq!(
            pool.stats().hits,
            1,
            "class-2 request reuses the cap-5 buffer"
        );
    }

    #[test]
    #[should_panic(expected = "a rank panicked")]
    fn self_send_rejected() {
        World::new(2).execute(|r| {
            if r.id() == 0 {
                r.send(0, 0, vec![]);
            }
        });
    }

    #[test]
    fn parked_messages_are_counted() {
        let mut world = World::new(2);
        world.execute(|r| {
            if r.id() == 0 {
                // Tag 2 arrives first but is received second: it parks once.
                r.send(1, 2, vec![2.0]);
                r.send(1, 1, vec![1.0]);
            } else {
                let _ = r.recv(0, 1);
                let _ = r.recv(0, 2);
            }
        });
        let stats = world.last_traffic();
        assert_eq!(stats.messages_parked, 1);
        assert_eq!(stats.faults_injected, 0);
    }

    #[test]
    fn drain_all_clears_parked_and_in_flight() {
        let out = World::new(2).execute(|r| {
            let drained = if r.id() == 0 {
                r.send(1, 9, vec![1.0; 8]);
                r.send(1, 10, vec![2.0; 8]);
                r.barrier();
                0
            } else {
                r.barrier();
                // Fishing for an absent tag parks both queued messages.
                assert!(r.try_recv(0, 99).is_none());
                r.drain_all()
            };
            // Rank 0 must outlive the fishing: a departed sender reads as
            // a disconnect, which `try_recv` reports as a peer panic.
            r.barrier();
            drained
        });
        assert_eq!(out[1], 2);
    }

    #[test]
    fn faultless_worlds_report_faults_disabled() {
        World::new(2).execute(|r| {
            r.set_fault_step(3); // no-op without a plane
            assert!(r.poll_fault_kill().is_ok());
            assert_eq!(r.traffic(), TrafficStats::default());
            r.barrier();
        });
    }

    #[test]
    fn faulted_drop_surfaces_as_timeout() {
        use crate::faults::TagClass;
        let plan = Arc::new(FaultPlan::empty().drop_message(0, 1, TagClass::Any, 0));
        let mut world = World::new(2);
        let out = world.execute_with_faults(Arc::clone(&plan), |r| {
            let ok = if r.id() == 0 {
                r.send(1, 5, vec![1.0]);
                true
            } else {
                matches!(
                    r.recv_checked(0, 5, Some(after_ms(50))),
                    Err(CommError::Timeout { from: 0, tag: 5 })
                )
            };
            // Keep rank 0 alive past the timeout so the failure mode is a
            // timeout, not a disconnect.
            r.barrier();
            ok
        });
        assert!(out[1], "dropped message must time out, not hang");
        assert_eq!(world.last_traffic().faults_injected, 1);
        assert_eq!(plan.fired_count(), 1);
    }

    #[test]
    fn faulted_corruption_is_detected() {
        use crate::faults::TagClass;
        let plan = Arc::new(FaultPlan::empty().corrupt_message(0, 1, TagClass::Any, 0));
        let out = World::new(2).execute_with_faults(plan, |r| {
            if r.id() == 0 {
                r.send(1, 5, vec![1.0, 2.0, 3.0]);
                true
            } else {
                matches!(
                    r.recv_checked(0, 5, Some(after_ms(500))),
                    Err(CommError::Corrupt { from: 0, tag: 5 })
                )
            }
        });
        assert!(out[1], "flipped mantissa bit must fail the checksum");
    }

    #[test]
    fn clean_messages_pass_checked_receives_under_faults() {
        let plan = Arc::new(FaultPlan::empty());
        let out = World::new(2).execute_with_faults(plan, |r| {
            if r.id() == 0 {
                r.send(1, 5, vec![4.0, 5.0]);
                vec![]
            } else {
                r.recv_checked(0, 5, Some(after_ms(500))).unwrap()
            }
        });
        assert_eq!(out[1], vec![4.0, 5.0]);
    }

    mod pool_boundaries {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Satellite: buffers of size exactly 2^k and 2^k ± 1 land in
            /// (and are served from) the correct capacity class, and a
            /// recycled buffer never shrinks.
            #[test]
            // k starts at 2: for k = 1, `below` is 1 whose class is 0.
            fn classes_respect_power_of_two_boundaries(k in 2u32..16) {
                let below = (1usize << k) - 1;
                let exact = 1usize << k;
                let above = exact + 1;
                prop_assert_eq!(BufferPool::class_of(below), k as usize);
                prop_assert_eq!(BufferPool::class_of(exact), k as usize);
                prop_assert_eq!(BufferPool::class_of(above), k as usize + 1);

                let pool = BufferPool::default();
                let buf = pool.acquire(exact);
                let cap = buf.capacity();
                prop_assert!(cap >= exact);
                pool.release(buf);

                // A class-(k+1) request must NOT reuse the class-k buffer
                // (it could not hold `above` without growing).
                let big = pool.acquire(above);
                prop_assert!(big.capacity() >= above);
                prop_assert_eq!(pool.stats().misses, 2);
                prop_assert_eq!(pool.stats().hits, 0);
                pool.release(big);

                // Both 2^k and 2^k - 1 requests reuse the class-k buffer,
                // and its capacity never shrank.
                for len in [exact, below] {
                    let hit = pool.acquire(len);
                    prop_assert!(hit.capacity() >= cap, "recycled buffer shrank");
                    pool.release(hit);
                }
                prop_assert_eq!(pool.stats().hits, 2);
                prop_assert_eq!(pool.stats().outstanding, 0);
            }
        }
    }
}
