//! Deterministic C10k load generation against `v6brickd`.
//!
//! Replays prepared [`UploadBundle`]s over `clients` concurrent
//! connections — but from a **bounded worker pool**: each worker
//! thread multiplexes its share of [`NbConn`]s through a readiness
//! [`Poller`], so 4096 concurrent clients cost 8 threads, not 4096.
//! Every connection is established *before* any upload starts (the
//! workers meet at a barrier), so "N clients" means N sockets
//! genuinely open at once, not N sequential sessions.
//!
//! Determinism is unchanged from the thread-per-client generator: the
//! partition is static — client `i` uploads exactly the bundles at
//! indices `j` with `j % clients == i`, in order — and each client
//! derives its chunk size from a per-client splitmix64 seed, so
//! per-client upload/failure counts are a pure function of `(bundles,
//! clients, load_seed)`, which the degradation tests assert.

use crate::client::NbConn;
use crate::poll::{raise_nofile_limit, Interest, Poller};
use crate::wire::{
    UploadAck, UploadBundle, K_ERR, K_OK, K_UPLOAD_BEGIN, K_UPLOAD_CHUNK, K_UPLOAD_END,
};
use std::io;
use std::sync::Barrier;
use std::time::{Duration, Instant};
use v6brick_fleet::home_seed;

/// Worker threads at most: enough to saturate the daemon's loop shards
/// without drowning CI hardware in threads.
const WORKERS: usize = 8;
/// Abort a run when no worker makes progress for this long (a stalled
/// peer must not hang the generator forever).
const STALL_TIMEOUT: Duration = Duration::from_secs(30);
/// Keep roughly this many encoded bytes queued per connection; chunks
/// are topped up lazily so a 4k-client run never materializes every
/// upload at once.
const OUT_LOW_WATER: usize = 128 * 1024;
/// Reconnect attempts after a failed upload (the server closes the
/// connection after an `ERR`).
const RECONNECT_ATTEMPTS: u32 = 10;

/// One client's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientReport {
    /// Client index (0-based).
    pub client: usize,
    /// Chunk size this client used (derived from its seed).
    pub chunk_size: usize,
    /// Uploads acknowledged by the server.
    pub uploads: u64,
    /// Frames the server reported across those uploads.
    pub frames: u64,
    /// Uploads that failed (typed server error or transport failure).
    pub failures: u64,
}

/// The whole run's outcome, per client in index order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadReport {
    /// One entry per client, index order.
    pub per_client: Vec<ClientReport>,
}

impl LoadReport {
    /// Total acknowledged uploads.
    pub fn uploads(&self) -> u64 {
        self.per_client.iter().map(|c| c.uploads).sum()
    }

    /// Total frames acknowledged.
    pub fn frames(&self) -> u64 {
        self.per_client.iter().map(|c| c.frames).sum()
    }

    /// Total failed uploads.
    pub fn failures(&self) -> u64 {
        self.per_client.iter().map(|c| c.failures).sum()
    }
}

/// The bundle indices client `i` of `clients` will upload, in order.
pub fn client_partition(bundle_count: usize, clients: usize, client: usize) -> Vec<usize> {
    (0..bundle_count)
        .filter(|j| j % clients.max(1) == client)
        .collect()
}

/// The chunk size client `i` uses, derived from the load seed: spread
/// over 512–4096 bytes so concurrent clients hit the streaming decoder
/// with different fragmentations.
pub fn client_chunk_size(load_seed: u64, client: usize) -> usize {
    512 + (home_seed(load_seed, client as u64) % 8) as usize * 512
}

/// Replay `bundles` against the daemon at `addr` over `clients`
/// concurrent connections, multiplexed across at most eight worker
/// threads. Blocks until every client finished; the per-client
/// partition and chunk sizes are deterministic in `(bundles, clients,
/// load_seed)`.
pub fn run(
    addr: &str,
    bundles: &[UploadBundle],
    clients: usize,
    load_seed: u64,
) -> io::Result<LoadReport> {
    let clients = clients.max(1);
    let workers = WORKERS.min(clients);
    // clients × (1 socket) plus the daemon side may share this process
    // in tests and benches: lift the fd ceiling before connecting.
    let _ = raise_nofile_limit();
    // All workers connect everything first, then cross the barrier
    // together: the upload phase starts with every socket open.
    let barrier = Barrier::new(workers);
    let mut per_client: Vec<ClientReport> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let mine: Vec<usize> = (0..clients).filter(|i| i % workers == w).collect();
            let barrier = &barrier;
            handles.push(
                scope.spawn(move || worker(addr, bundles, clients, load_seed, mine, barrier)),
            );
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load worker panicked"))
            .collect()
    });
    per_client.sort_by_key(|c| c.client);
    Ok(LoadReport { per_client })
}

/// Where one multiplexed client currently is.
enum Phase {
    /// Streaming the current bundle's frames.
    Sending,
    /// Everything sent; waiting for the ack/error frame.
    AwaitReply,
    /// All assigned bundles resolved (socket closed).
    Done,
}

/// One multiplexed client: its connection, static assignment, and
/// progress through the current bundle.
struct Driver {
    report: ClientReport,
    /// Indices into the shared bundle slice, in upload order.
    assigned: Vec<usize>,
    /// Position in `assigned`.
    cursor: usize,
    conn: Option<NbConn>,
    phase: Phase,
    /// Raw pcap bytes of the current bundle already chunk-framed.
    offset: usize,
    /// `UPLOAD_END` queued for the current bundle.
    end_queued: bool,
}

impl Driver {
    fn current_bundle<'a>(&self, bundles: &'a [UploadBundle]) -> &'a UploadBundle {
        &bundles[self.assigned[self.cursor]]
    }

    /// Queue the `UPLOAD_BEGIN` of the next assigned bundle.
    fn begin_bundle(&mut self, bundles: &[UploadBundle]) {
        let header =
            serde_json::to_string(&self.current_bundle(bundles).header).expect("header serializes");
        let conn = self.conn.as_mut().expect("conn present in Sending");
        conn.enqueue_frame(K_UPLOAD_BEGIN, header.as_bytes());
        self.offset = 0;
        self.end_queued = false;
        self.phase = Phase::Sending;
    }

    /// Lazily top up the outbound queue with chunk frames; transition
    /// to `AwaitReply` once the END is queued.
    fn top_up(&mut self, bundles: &[UploadBundle]) {
        if !matches!(self.phase, Phase::Sending) {
            return;
        }
        let pcap: &[u8] = &self.current_bundle(bundles).pcap;
        let chunk = self.report.chunk_size;
        let conn = self.conn.as_mut().expect("conn present in Sending");
        while !self.end_queued && conn.pending_out() < OUT_LOW_WATER {
            if self.offset < pcap.len() {
                let end = (self.offset + chunk).min(pcap.len());
                conn.enqueue_frame(K_UPLOAD_CHUNK, &pcap[self.offset..end]);
                self.offset = end;
            } else {
                conn.enqueue_frame(K_UPLOAD_END, &[]);
                self.end_queued = true;
            }
        }
        if self.end_queued && conn.pending_out() == 0 {
            self.phase = Phase::AwaitReply;
        }
    }

    /// Resolve the current bundle and step to the next (or Done).
    /// Returns whether a new bundle started (the caller re-arms write
    /// interest and pumps).
    fn resolve(&mut self, bundles: &[UploadBundle], ack: Option<&UploadAck>) -> bool {
        match ack {
            Some(ack) => {
                self.report.uploads += 1;
                self.report.frames += ack.frames;
            }
            None => self.report.failures += 1,
        }
        self.cursor += 1;
        if self.cursor < self.assigned.len() {
            self.begin_bundle(bundles);
            true
        } else {
            self.phase = Phase::Done;
            self.conn = None;
            false
        }
    }

    /// Count every unresolved bundle as failed and finish.
    fn abandon(&mut self) {
        let remaining = (self.assigned.len() - self.cursor) as u64;
        self.report.failures += remaining;
        self.cursor = self.assigned.len();
        self.phase = Phase::Done;
        self.conn = None;
    }
}

/// Drive one worker's share of clients to completion.
fn worker(
    addr: &str,
    bundles: &[UploadBundle],
    clients: usize,
    load_seed: u64,
    mine: Vec<usize>,
    barrier: &Barrier,
) -> Vec<ClientReport> {
    let mut drivers: Vec<Driver> = mine
        .into_iter()
        .map(|i| Driver {
            report: ClientReport {
                client: i,
                chunk_size: client_chunk_size(load_seed, i),
                uploads: 0,
                frames: 0,
                failures: 0,
            },
            assigned: client_partition(bundles.len(), clients, i),
            cursor: 0,
            conn: None,
            phase: Phase::Done,
            offset: 0,
            end_queued: false,
        })
        .collect();
    // Connect every client before any upload anywhere starts.
    for d in &mut drivers {
        match NbConn::connect_retry(addr, 50, Duration::from_millis(20)) {
            Ok(conn) => d.conn = Some(conn),
            Err(_) => d.abandon(),
        }
    }
    barrier.wait();

    let poller = match Poller::new() {
        Ok(p) => p,
        Err(_) => {
            for d in &mut drivers {
                d.abandon();
            }
            return drivers.into_iter().map(|d| d.report).collect();
        }
    };
    use std::os::fd::AsRawFd;
    for (slot, d) in drivers.iter_mut().enumerate() {
        if d.conn.is_none() {
            continue;
        }
        if d.assigned.is_empty() {
            // Nothing to upload: this client only existed to hold a
            // concurrent connection through the barrier.
            d.phase = Phase::Done;
            d.conn = None;
            continue;
        }
        d.begin_bundle(bundles);
        d.top_up(bundles);
        let conn = d.conn.as_ref().expect("connected driver");
        if poller
            .register(conn.stream().as_raw_fd(), slot as u64, Interest::BOTH)
            .is_err()
        {
            d.abandon();
        }
    }

    let mut events = Vec::new();
    let mut last_progress = Instant::now();
    loop {
        let live = drivers
            .iter()
            .filter(|d| !matches!(d.phase, Phase::Done))
            .count();
        if live == 0 {
            break;
        }
        if last_progress.elapsed() > STALL_TIMEOUT {
            for d in &mut drivers {
                if !matches!(d.phase, Phase::Done) {
                    if let Some(conn) = d.conn.take() {
                        let _ = poller.deregister(conn.stream().as_raw_fd());
                    }
                    d.abandon();
                }
            }
            break;
        }
        if poller
            .wait(&mut events, Some(Duration::from_millis(100)))
            .is_err()
        {
            continue;
        }
        let batch = std::mem::take(&mut events);
        for ev in &batch {
            let slot = ev.token as usize;
            if drive(slot, &mut drivers, &poller, bundles, addr) {
                last_progress = Instant::now();
            }
        }
        events = batch;
    }
    drivers.into_iter().map(|d| d.report).collect()
}

/// Pump one client on a readiness event; `true` if any progress was
/// made (bytes moved or a bundle resolved).
fn drive(
    slot: usize,
    drivers: &mut [Driver],
    poller: &Poller,
    bundles: &[UploadBundle],
    addr: &str,
) -> bool {
    use std::os::fd::AsRawFd;
    let Some(d) = drivers.get_mut(slot) else {
        return false;
    };
    if matches!(d.phase, Phase::Done) || d.conn.is_none() {
        return false;
    }
    let mut progress = false;
    // Read first: an early ERR (refusal mid-stream) resolves the bundle
    // without finishing the send.
    let frames = match d.conn.as_mut().expect("live conn").pump_read() {
        Ok(frames) => frames,
        Err(_) => {
            // Connection lost: current bundle failed; reconnect for the
            // remaining ones (mirrors the blocking generator).
            let conn = d.conn.take().expect("live conn");
            let _ = poller.deregister(conn.stream().as_raw_fd());
            drop(conn);
            reconnect(d, poller, bundles, addr, slot);
            return true;
        }
    };
    for frame in &frames {
        progress = true;
        let resolved = match frame.kind {
            K_OK => std::str::from_utf8(&frame.payload)
                .ok()
                .and_then(|s| serde_json::from_str::<UploadAck>(s).ok()),
            K_ERR => None,
            _ => None,
        };
        let had_conn_error = frame.kind != K_OK;
        if had_conn_error {
            // The server closes its side after an ERR; reconnect before
            // the next bundle.
            d.report.failures += 1;
            d.cursor += 1;
            let conn = d.conn.take().expect("live conn");
            let _ = poller.deregister(conn.stream().as_raw_fd());
            drop(conn);
            if d.cursor < d.assigned.len() {
                reconnect_next(d, poller, bundles, addr, slot);
            } else {
                d.phase = Phase::Done;
            }
            return true;
        }
        match resolved.as_ref() {
            Some(ack) => {
                d.resolve(bundles, Some(ack));
            }
            None => {
                // An OK frame that doesn't parse as an ack: protocol
                // violation, treat like a lost connection.
                d.resolve(bundles, None);
            }
        }
        if matches!(d.phase, Phase::Done) {
            // resolve() dropped the connection; nothing left to pump.
            return true;
        }
    }
    // Keep the pipe full and flush.
    d.top_up(bundles);
    if let Some(conn) = d.conn.as_mut() {
        match conn.pump_write() {
            Ok(_) => {
                progress = true;
                d.top_up(bundles);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(_) => {
                let conn = d.conn.take().expect("live conn");
                let _ = poller.deregister(conn.stream().as_raw_fd());
                drop(conn);
                reconnect(d, poller, bundles, addr, slot);
                return true;
            }
        }
    }
    // Reconcile interest: write only while bytes are queued or chunks
    // remain to be framed.
    if let Some(conn) = d.conn.as_ref() {
        let want_write = conn.pending_out() > 0 || !d.end_queued;
        let want = if want_write {
            Interest::BOTH
        } else {
            Interest::READ
        };
        let _ = poller.modify(conn.stream().as_raw_fd(), slot as u64, want);
    }
    progress
}

/// The current bundle failed with the connection: count it, move on,
/// and reconnect for the remainder.
fn reconnect(d: &mut Driver, poller: &Poller, bundles: &[UploadBundle], addr: &str, slot: usize) {
    d.report.failures += 1;
    d.cursor += 1;
    if d.cursor >= d.assigned.len() {
        d.phase = Phase::Done;
        d.conn = None;
        return;
    }
    reconnect_next(d, poller, bundles, addr, slot);
}

/// Open a fresh connection for the next bundle (the previous one is
/// already deregistered and closed); on failure every remaining bundle
/// is abandoned.
fn reconnect_next(
    d: &mut Driver,
    poller: &Poller,
    bundles: &[UploadBundle],
    addr: &str,
    slot: usize,
) {
    use std::os::fd::AsRawFd;
    match NbConn::connect_retry(addr, RECONNECT_ATTEMPTS, Duration::from_millis(20)) {
        Ok(conn) => {
            if poller
                .register(conn.stream().as_raw_fd(), slot as u64, Interest::BOTH)
                .is_err()
            {
                d.abandon();
                return;
            }
            d.conn = Some(conn);
            d.begin_bundle(bundles);
            d.top_up(bundles);
        }
        Err(_) => d.abandon(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_exhaustive_and_disjoint() {
        for clients in [1, 2, 3, 16] {
            let mut seen = vec![false; 23];
            for i in 0..clients {
                for j in client_partition(23, clients, i) {
                    assert!(!seen[j], "bundle {j} assigned twice");
                    seen[j] = true;
                }
            }
            assert!(seen.into_iter().all(|s| s), "clients={clients}");
        }
    }

    #[test]
    fn chunk_sizes_are_deterministic_and_varied() {
        let a: Vec<usize> = (0..16).map(|i| client_chunk_size(7, i)).collect();
        let b: Vec<usize> = (0..16).map(|i| client_chunk_size(7, i)).collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|&c| (512..=4096).contains(&c)));
        assert!(
            a.iter().collect::<std::collections::HashSet<_>>().len() > 1,
            "all 16 clients drew the same chunk size"
        );
    }
}
