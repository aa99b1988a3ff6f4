//! Request streams the benchmark sends to the server it started itself,
//! in-process, on a loopback port. They speak the serve wire protocol
//! directly, so one connection can carry several requests in flight.
//!
//! * [`closed_loop`]: one thread per connection keeps a fixed window of
//!   single-row predicts in flight; the next request goes out only when
//!   one completes.
//! * [`crate::open_loop::OpenLoop`]: requests on a fixed schedule.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use deepmorph_serve::protocol::{self, PredictRequest, Request, Response};
use deepmorph_tensor::Tensor;

/// A deterministic input row for request `index` of a stream seeded by
/// `seed`: values in `[0, 1)` from a splitmix64 sequence.
pub fn input_row(seed: u64, index: u64, shape: [usize; 3]) -> Tensor {
    let elems = shape.iter().product::<usize>();
    let mut state = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let data = (0..elems)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 40) as f32 / (1u64 << 24) as f32
        })
        .collect();
    Tensor::from_vec(data, &[1, shape[0], shape[1], shape[2]]).expect("row shape")
}

/// One encoded single-row predict.
pub fn encode_predict(id: u64, model: &str, row: &Tensor, want_logits: bool) -> Vec<u8> {
    protocol::encode_request(
        id,
        &Request::Predict(PredictRequest {
            model: model.to_string(),
            rows: row.clone(),
            want_logits,
            true_labels: Vec::new(),
            deadline_ms: 0,
        }),
    )
}

/// Reads one response frame: `(echoed id, response)`, with `None` for a
/// frame that does not decode.
pub fn read_response(stream: &mut TcpStream) -> std::io::Result<(u64, Option<Response>)> {
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix)?;
    let mut frame = vec![0u8; u32::from_le_bytes(prefix) as usize];
    stream.read_exact(&mut frame)?;
    Ok(match protocol::decode_response(&frame) {
        Ok((id, response)) => (id, Some(response)),
        Err(_) => (0, None),
    })
}

/// One completed (or failed) request of a closed loop.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// Index into the connection's request pool.
    pub index: usize,
    /// Completion time, seconds since the loop's origin.
    pub done_s: f64,
    /// Latency in µs (`INFINITY` for a failed request).
    pub latency_us: f64,
    /// Predicted class (`usize::MAX` for a failed request).
    pub prediction: usize,
}

/// What one closed-loop connection saw.
#[derive(Debug, Default)]
pub struct ClosedLoopResult {
    pub completions: Vec<Completion>,
    /// Responses that carried logits (the bitwise-checked sample), by
    /// pool index.
    pub logits: Vec<(usize, Tensor)>,
    /// Error frames, undecodable frames and transport failures.
    pub failures: u64,
}

/// Drives one connection in a closed loop until `until`, keeping
/// `window` requests in flight. `wires[i]` is request `i` of this
/// connection's pool, encoded with id `i + 1`; the pool is reused
/// round-robin. Requests in flight at `until` are drained.
pub fn closed_loop(
    addr: SocketAddr,
    wires: &[Vec<u8>],
    window: usize,
    origin: Instant,
    until: Instant,
) -> ClosedLoopResult {
    let mut result = ClosedLoopResult::default();
    let Ok(mut stream) = TcpStream::connect(addr) else {
        result.failures += 1;
        return result;
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let mut in_flight: HashMap<u64, Instant> = HashMap::with_capacity(window * 2);
    let mut next = 0usize;
    loop {
        while Instant::now() < until && in_flight.len() < window {
            let slot = next % wires.len();
            in_flight.insert(slot as u64 + 1, Instant::now());
            if stream.write_all(&wires[slot]).is_err() {
                result.failures += in_flight.len() as u64;
                return result;
            }
            next += 1;
        }
        if in_flight.is_empty() {
            return result;
        }
        let Ok((id, response)) = read_response(&mut stream) else {
            result.failures += in_flight.len() as u64;
            return result;
        };
        let now = Instant::now();
        let Some(sent) = in_flight.remove(&id) else {
            // An undecodable frame (id 0) or an unknown id: the request
            // it answered cannot be matched, so the stream is unusable.
            result.failures += in_flight.len() as u64 + 1;
            return result;
        };
        let index = id as usize - 1;
        let done_s = (now - origin).as_secs_f64();
        match response {
            Some(Response::Predict(p)) if p.predictions.len() == 1 => {
                result.completions.push(Completion {
                    index,
                    done_s,
                    latency_us: (now - sent).as_secs_f64() * 1e6,
                    prediction: p.predictions[0],
                });
                if let Some(logits) = p.logits {
                    result.logits.push((index, logits));
                }
            }
            _ => {
                result.failures += 1;
                result.completions.push(Completion {
                    index,
                    done_s,
                    latency_us: f64::INFINITY,
                    prediction: usize::MAX,
                });
            }
        }
    }
}
