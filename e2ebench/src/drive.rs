//! The single-threaded load generator: a closed loop with a fixed
//! in-flight window for capacity, an open loop at a fixed offered rate
//! for latency.  It also publishes epochs on a fixed request count.

use crate::check::Ledger;
use crate::host;
use crate::schedule::Schedule;
use crate::trace::Tracer;
use ftbfs_serve::{EpochPublisher, EpochSnapshot, ServeError, ServeResponse, StreamHandle};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// With nothing in flight, the generator sleeps until this long before the
/// next due time and spins the rest; the margin covers the wake-up
/// overshoot of a timed sleep (the kernel's default timer slack is 50 µs).
/// With requests in flight it polls for responses without blocking: a
/// blocked generator's vCPU halts, and waking a halted vCPU costs a
/// virtualised host far more than the poll.
const SPIN_MARGIN: Duration = Duration::from_micros(100);

/// The closed loop reports its rate per window of this length.
pub const RATE_WINDOW: Duration = Duration::from_millis(100);

/// The timeout of a non-blocking receive.  `StreamHandle::recv_timeout`
/// gives up before looking at the channel when its budget is already
/// spent, so a poll needs a budget a little above zero.
const POLL: Duration = Duration::from_micros(1);

/// One window of the closed loop.
#[derive(Clone, Copy, Debug)]
pub struct RateWindow {
    /// Requests completed per second.
    pub per_s: f64,
    /// CPU time the process's threads (client and server) ran per
    /// completed request.
    pub cpu_ns_per_req: f64,
}

/// One request of the open-loop phase, as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// From due time to response received.
    pub latency_ns: u64,
    /// `ServeResponse::work_ns`.
    pub work_ns: u64,
}

/// What the open-loop phase measured.
#[derive(Debug, Default)]
pub struct OpenLoop {
    pub samples: Vec<Sample>,
    pub max_backlog: u64,
}

/// Epoch swaps every `every` submitted requests, alternating through
/// `snapshots` (the first is the one the server starts on).
pub struct Swapper {
    publisher: EpochPublisher,
    snapshots: Vec<EpochSnapshot>,
    every: usize,
    next: usize,
    /// How long each publish took.
    pub publish_ns: Vec<u64>,
}

impl Swapper {
    pub fn new(publisher: EpochPublisher, snapshots: Vec<EpochSnapshot>, every: usize) -> Self {
        Swapper {
            publisher,
            snapshots,
            every,
            next: 1,
            publish_ns: Vec::new(),
        }
    }

    fn publish_next(&mut self) {
        let snapshot = self.snapshots[self.next % self.snapshots.len()].clone();
        self.next += 1;
        let start = Instant::now();
        self.publisher
            .publish(snapshot)
            .expect("validated snapshot publishes");
        self.publish_ns.push(start.elapsed().as_nanos() as u64);
    }
}

/// In-flight bookkeeping for one stream.
struct Pending {
    slot: usize,
    /// When it was due (open loop) or submitted (closed loop).
    due: Instant,
    /// When the submit call started.
    submitted: Instant,
}

/// Drives one stream through the schedule, cycling.
pub struct LoadGen<'a> {
    stream: StreamHandle,
    schedule: &'a Schedule,
    pub ledger: Ledger,
    swapper: Option<Swapper>,
    /// Schedule slot of the first request.
    offset: usize,
    /// Requests submitted so far.
    pub submitted: u64,
    pub rejected: u64,
    next_seq: u64,
    pending: VecDeque<Pending>,
    /// Responses per epoch fingerprint.
    pub epochs: Vec<(u64, u64)>,
}

impl<'a> LoadGen<'a> {
    /// A generator that starts at schedule slot `offset`.
    pub fn new(
        stream: StreamHandle,
        schedule: &'a Schedule,
        offset: usize,
        swapper: Option<Swapper>,
    ) -> Self {
        LoadGen {
            stream,
            schedule,
            ledger: Ledger::new(schedule.entries.len()),
            swapper,
            offset,
            submitted: 0,
            rejected: 0,
            next_seq: 0,
            pending: VecDeque::new(),
            epochs: Vec::new(),
        }
    }

    /// Closes the stream; returns the ledger and the swapper.
    pub fn finish(self) -> (Ledger, Option<Swapper>) {
        (self.ledger, self.swapper)
    }

    /// Submits the next scheduled request, due at `due`.
    fn submit(&mut self, due: Instant) {
        if let Some(s) = self.swapper.as_mut() {
            if self.submitted > 0 && self.submitted.is_multiple_of(s.every as u64) {
                s.publish_next();
            }
        }
        let slot = (self.offset + self.submitted as usize) % self.schedule.entries.len();
        self.submitted += 1;
        let submitted = Instant::now();
        match self.stream.submit(self.schedule.entries[slot].request()) {
            Ok(seq) => {
                assert_eq!(seq, self.next_seq, "stream sequence out of step");
                self.next_seq += 1;
                self.pending.push_back(Pending {
                    slot,
                    due,
                    submitted,
                });
            }
            Err(_) => self.rejected += 1,
        }
    }

    /// Books one response against the oldest pending request (streams
    /// deliver in submission order).
    fn take(&mut self, resp: &ServeResponse) -> Pending {
        let pending = self.pending.pop_front().expect("a response is owed");
        self.ledger.observe(pending.slot, resp);
        match self.epochs.iter_mut().find(|(e, _)| *e == resp.epoch) {
            Some((_, count)) => *count += 1,
            None => self.epochs.push((resp.epoch, 1)),
        }
        pending
    }

    fn recv(&mut self) -> ServeResponse {
        self.stream
            .recv()
            .expect("server answers every admitted request")
    }

    /// Receives everything in flight.
    pub fn drain(&mut self) {
        while !self.pending.is_empty() {
            let resp = self.recv();
            self.take(&resp);
        }
    }

    /// Keeps `window` requests in flight for `duration`; returns one
    /// [`RateWindow`] per consecutive [`RATE_WINDOW`].
    pub fn closed_loop(
        &mut self,
        window: usize,
        duration: Duration,
    ) -> Result<Vec<RateWindow>, String> {
        let start = Instant::now();
        let mut windows = Vec::new();
        let mut window_start = start;
        let mut window_cpu_ns = host::threads_cpu_ns()?;
        let mut completed = 0u64;
        loop {
            while self.pending.len() < window {
                self.submit(Instant::now());
            }
            let resp = self.recv();
            self.take(&resp);
            completed += 1;
            let now = Instant::now();
            if now - window_start >= RATE_WINDOW {
                let cpu_ns = host::threads_cpu_ns()?;
                windows.push(RateWindow {
                    per_s: completed as f64 / (now - window_start).as_secs_f64(),
                    cpu_ns_per_req: cpu_ns.saturating_sub(window_cpu_ns) as f64 / completed as f64,
                });
                window_start = now;
                window_cpu_ns = cpu_ns;
                completed = 0;
            }
            if now - start >= duration {
                break;
            }
        }
        self.drain();
        Ok(windows)
    }

    /// Offers `rate_per_s` requests per second for `duration`, each timed
    /// from its due time, whatever the server's backlog.  With tracing on,
    /// every request is a `request` span with a `gen.late` child.
    pub fn open_loop(
        &mut self,
        rate_per_s: f64,
        duration: Duration,
        tracer: &mut Tracer,
    ) -> OpenLoop {
        let total = (rate_per_s * duration.as_secs_f64()).round() as u64;
        let start = Instant::now() + Duration::from_millis(1);
        let mut out = OpenLoop {
            samples: Vec::with_capacity(total as usize),
            max_backlog: 0,
        };
        let due_at = |k: u64| start + Duration::from_secs_f64(k as f64 / rate_per_s);
        let mut issued = 0u64;
        loop {
            // Submit everything due, then book every response that has
            // arrived.
            while issued < total && Instant::now() >= due_at(issued) {
                self.submit(due_at(issued));
                issued += 1;
                out.max_backlog = out.max_backlog.max(self.pending.len() as u64);
            }
            while !self.pending.is_empty() {
                let resp = match self.stream.recv_timeout(POLL) {
                    Ok(resp) => resp,
                    Err(ServeError::Timeout(_)) => break,
                    Err(e) => panic!("stream failed: {e}"),
                };
                let received = Instant::now();
                let p = self.take(&resp);
                out.samples.push(Sample {
                    latency_ns: (received - p.due).as_nanos() as u64,
                    work_ns: resp.work_ns,
                });
                let root = tracer.record("request", p.due, received, None);
                tracer.record("gen.late", p.due, p.submitted, root);
            }
            if issued == total && self.pending.is_empty() {
                break;
            }
            // Sleep until shortly before the next due time if nothing is in
            // flight; otherwise keep polling.
            let wait = if issued < total {
                due_at(issued).saturating_duration_since(Instant::now())
            } else {
                Duration::from_millis(50)
            };
            if wait > SPIN_MARGIN && self.pending.is_empty() {
                std::thread::sleep(wait - SPIN_MARGIN);
            } else {
                std::hint::spin_loop();
            }
        }
        out
    }
}
