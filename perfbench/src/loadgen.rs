//! Open-loop arrival schedule. Request `i` is due at `start + i / rate`
//! whatever happened to earlier requests, and its latency is counted
//! from that due time, not from when it was finally sent: a generator
//! that stalls, or a connection that backs up, delays every request due
//! meanwhile, and the latencies show it.

use std::time::{Duration, Instant};

/// Fixed-rate arrivals.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Due time of request 0.
    pub start: Instant,
    /// Requests per second.
    pub rate: f64,
}

impl Schedule {
    /// When request `i` is due.
    pub fn due(&self, i: u64) -> Instant {
        self.start + Duration::from_secs_f64(i as f64 / self.rate)
    }
}

/// Generator-side timestamps of one request.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    /// When it was due.
    pub due: Instant,
    /// When the generator began sending it.
    pub sent: Instant,
    /// When the send returned.
    pub written: Instant,
}

impl Sent {
    /// How late the generator began sending, ms.
    pub fn late_ms(&self) -> f64 {
        ms_between(self.due, self.sent)
    }
}

/// `b - a` in ms, 0 when `b` is earlier.
pub fn ms_between(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// Send `count` requests on `sched`. `before(i)` runs just before
/// request `i` is sent (the tests inject a stall there); `send(i)` sends
/// it. Returns the timestamps of every request, in order.
///
/// # Errors
///
/// Stops at the first failed send and returns its error.
pub fn drive<E>(
    sched: &Schedule,
    count: u64,
    mut before: impl FnMut(u64),
    mut send: impl FnMut(u64) -> Result<(), E>,
) -> Result<Vec<Sent>, E> {
    let mut out = Vec::with_capacity(count as usize);
    for i in 0..count {
        let due = sched.due(i);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        before(i);
        let sent = Instant::now();
        send(i)?;
        out.push(Sent {
            due,
            sent,
            written: Instant::now(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percentile;
    use std::sync::mpsc;

    /// A generator stall of 60 ms at 1000 req/s: an instant responder
    /// answers every request within microseconds of its send, yet the
    /// requests due during the stall are charged the wait.
    #[test]
    fn stall_is_charged_to_the_requests_due_during_it() {
        let (tx, rx) = mpsc::channel::<u64>();
        let (back_tx, back_rx) = mpsc::channel::<(u64, Instant)>();
        let responder = std::thread::spawn(move || {
            for i in rx {
                back_tx.send((i, Instant::now())).unwrap();
            }
        });
        let sched = Schedule {
            start: Instant::now() + Duration::from_millis(5),
            rate: 1000.0,
        };
        let stall = Duration::from_millis(60);
        let sent = drive(
            &sched,
            1200,
            |i| {
                if i == 100 {
                    std::thread::sleep(stall);
                }
            },
            |i| tx.send(i),
        )
        .unwrap();
        drop(tx);
        responder.join().unwrap();
        let mut recv = vec![None; sent.len()];
        for (i, t) in back_rx {
            recv[i as usize] = Some(t);
        }
        let from_due: Vec<f64> = sent
            .iter()
            .zip(&recv)
            .map(|(s, r)| ms_between(s.due, r.unwrap()))
            .collect();
        let from_send: Vec<f64> = sent
            .iter()
            .zip(&recv)
            .map(|(s, r)| ms_between(s.sent, r.unwrap()))
            .collect();
        // Request 100 waited the whole stall; request 130, due 30 ms
        // later, still waited about 30 ms.
        assert!(from_due[100] >= 59.0, "{}", from_due[100]);
        assert!(from_due[130] >= 29.0, "{}", from_due[130]);
        // A send-time clock would report them as instant.
        assert!(from_send[100] < 20.0 && from_send[130] < 20.0);
        // 60 of 1200 requests were due during the stall: the p99 of
        // latency from the due time, and of lateness, both show it.
        assert!(percentile(&from_due, 0.99).unwrap() >= 10.0);
        let late: Vec<f64> = sent.iter().map(Sent::late_ms).collect();
        assert!(percentile(&late, 0.99).unwrap() >= 10.0);
        assert!(percentile(&from_send, 0.99).unwrap() < 10.0);
    }
}
