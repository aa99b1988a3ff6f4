//! An open-loop request schedule against the benchmark's own loopback
//! server: one sender thread emits single-row predicts at a fixed rate
//! whether or not earlier ones were answered, one reader thread collects
//! the responses, and each request is timed from when it was *due*, so
//! a server stall also counts against the requests queued behind it.
//! The sender's own lateness is recorded too, so a stalled generator
//! shows up instead of hiding in the latencies.

use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use deepmorph_serve::protocol::Response;
use deepmorph_tensor::Tensor;

use crate::loadgen::{encode_predict, read_response};

/// One request of the schedule.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// When the request was due, seconds since the schedule's origin.
    pub due_s: f64,
    /// From due time to response, µs (`INFINITY` when it failed or
    /// never came back).
    pub latency_us: f64,
    /// How late the sender actually sent it, µs.
    pub late_us: f64,
}

/// A running schedule on one connection.
pub struct OpenLoop {
    stop: Arc<AtomicBool>,
    sender: JoinHandle<Vec<f64>>,
    reader: JoinHandle<Vec<(u64, f64, bool)>>,
    /// Nanoseconds after `origin` each request was due, by id − 1.
    due: Arc<Vec<AtomicU64>>,
    sent: Arc<AtomicU64>,
    received: Arc<AtomicU64>,
    socket: TcpStream,
    pub origin: Instant,
}

impl OpenLoop {
    /// Starts sending single-row predicts for `model` at `rate_hz`,
    /// inputs from `row(i)`, at most `capacity` requests.
    pub fn start(
        addr: SocketAddr,
        model: &str,
        rate_hz: f64,
        capacity: usize,
        row: impl Fn(u64) -> Tensor + Send + 'static,
    ) -> std::io::Result<OpenLoop> {
        let socket = TcpStream::connect(addr)?;
        socket.set_nodelay(true)?;
        let mut read_half = socket.try_clone()?;
        let mut write_half = socket.try_clone()?;
        let stop = Arc::new(AtomicBool::new(false));
        let due: Arc<Vec<AtomicU64>> = Arc::new((0..capacity).map(|_| AtomicU64::new(0)).collect());
        let sent = Arc::new(AtomicU64::new(0));
        let received = Arc::new(AtomicU64::new(0));
        let origin = Instant::now();
        let interval = 1.0 / rate_hz;

        let model = model.to_string();
        let sender = {
            let (stop, due, sent) = (Arc::clone(&stop), Arc::clone(&due), Arc::clone(&sent));
            std::thread::spawn(move || {
                let mut lateness = Vec::with_capacity(capacity);
                for i in 0..capacity as u64 {
                    let wire = encode_predict(i + 1, &model, &row(i), false);
                    let due_at = Duration::from_secs_f64(interval * i as f64);
                    let now = origin.elapsed();
                    if due_at > now {
                        std::thread::sleep(due_at - now);
                    }
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    due[i as usize].store(due_at.as_nanos() as u64, Ordering::Relaxed);
                    lateness.push(origin.elapsed().saturating_sub(due_at).as_secs_f64() * 1e6);
                    // Release publishes the due time before the count.
                    sent.store(i + 1, Ordering::Release);
                    if std::io::Write::write_all(&mut write_half, &wire).is_err() {
                        break;
                    }
                }
                lateness
            })
        };
        let reader = {
            let received = Arc::clone(&received);
            std::thread::spawn(move || {
                let mut answered = Vec::with_capacity(capacity);
                // Blocking reads; `finish` ends the last one by shutting
                // the socket down.
                while let Ok((id, response)) = read_response(&mut read_half) {
                    let ok = matches!(
                        response,
                        Some(Response::Predict(ref p)) if p.predictions.len() == 1
                    );
                    answered.push((id, origin.elapsed().as_secs_f64(), ok));
                    received.fetch_add(1, Ordering::Release);
                }
                answered
            })
        };
        Ok(OpenLoop {
            stop,
            sender,
            reader,
            due,
            sent,
            received,
            socket,
            origin,
        })
    }

    /// Stops sending, waits up to 10 s for outstanding responses, and
    /// returns every request sent, in id order.
    pub fn finish(self) -> Vec<Timed> {
        self.stop.store(true, Ordering::Release);
        let lateness = self.sender.join().expect("open-loop sender thread");
        let sent = self.sent.load(Ordering::Acquire);
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.received.load(Ordering::Acquire) < sent && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let _ = self.socket.shutdown(Shutdown::Both);
        let answered = self.reader.join().expect("open-loop reader thread");
        let sent = sent as usize;
        let mut timed: Vec<Timed> = (0..sent)
            .map(|i| Timed {
                due_s: self.due[i].load(Ordering::Relaxed) as f64 * 1e-9,
                latency_us: f64::INFINITY,
                late_us: lateness.get(i).copied().unwrap_or(0.0),
            })
            .collect();
        for (id, done_s, ok) in answered {
            if ok && id >= 1 && (id as usize) <= sent {
                let t = &mut timed[id as usize - 1];
                t.latency_us = (done_s - t.due_s) * 1e6;
            }
        }
        timed
    }
}
