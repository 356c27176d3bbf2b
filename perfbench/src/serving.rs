//! Load generators over `Server::submit`, with at most two submitter
//! threads. An op is a list of apps one tenant submits in sequence: one
//! request on `serve-mixed`, a whole job on the batch workloads.

use crate::check::Observed;
use crate::workload::App;
use ensemble_serve::{Request, Server};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished op.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Op index in the stream (sets its apps).
    pub index: u64,
    /// Time from when the op was due to its last response, ms.
    pub latency_ms: f64,
    /// Time from when the op was due to its first submit, ms.
    pub late_ms: f64,
    /// Time from first submit to last response, ms.
    pub service_ms: f64,
    /// Per app run: its app index and what it produced (`None`: error).
    pub runs: Vec<(usize, Option<Observed>)>,
    /// When the op's first submit began.
    pub start: Instant,
    /// When the op finished.
    pub end: Instant,
}

fn submit_op(
    server: &Server,
    apps: &[App],
    tenant: u64,
    index: u64,
    op: &[usize],
    due: Instant,
) -> OpRecord {
    let start = Instant::now();
    let results: Vec<_> = op
        .iter()
        .map(|&a| {
            (
                a,
                server.submit(Request::new(tenant, apps[a].source.as_str())),
            )
        })
        .collect();
    let end = Instant::now();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    OpRecord {
        index,
        latency_ms: ms(end.saturating_duration_since(due)),
        late_ms: ms(start.saturating_duration_since(due)),
        service_ms: ms(end - start),
        runs: results
            .into_iter()
            .map(|(a, r)| (a, r.ok().map(|r| Observed::of(&r))))
            .collect(),
        start,
        end,
    }
}

/// A closed loop: `clients` tenants each submit their next op as soon
/// as the previous one returns, until `until`. An op is due when its
/// client became ready. Ops come back sorted by index.
pub fn closed_loop(
    server: &Server,
    apps: &[App],
    op_apps: &(dyn Fn(u64) -> Vec<usize> + Sync),
    clients: u64,
    until: Instant,
) -> Vec<OpRecord> {
    let next = AtomicU64::new(0);
    let records = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for tenant in 0..clients {
            let (next, records) = (&next, &records);
            s.spawn(move || {
                let mut ready = Instant::now();
                while ready < until {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let rec = submit_op(server, apps, tenant, i, &op_apps(i), ready);
                    ready = rec.end;
                    records.lock().expect("no submitter panics").push(rec);
                }
            });
        }
    });
    sorted(records)
}

/// An open loop: op `i` is due at `start + i / rate_per_s`, whether or
/// not earlier ops have returned, for ops due before `until`. Two
/// submitter threads (two tenants) take ops in order; when both are
/// busy, the next op starts late, and its latency still counts from its
/// due time. Ops come back sorted by index.
pub fn open_loop(
    server: &Server,
    apps: &[App],
    op_apps: &(dyn Fn(u64) -> Vec<usize> + Sync),
    rate_per_s: f64,
    until: Instant,
) -> Vec<OpRecord> {
    let start = Instant::now();
    let next = AtomicU64::new(0);
    let records = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for tenant in 0..2 {
            let (next, records) = (&next, &records);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let due = start + Duration::from_secs_f64(i as f64 / rate_per_s);
                if due >= until {
                    break;
                }
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let rec = submit_op(server, apps, tenant, i, &op_apps(i), due);
                records.lock().expect("no submitter panics").push(rec);
            });
        }
    });
    sorted(records)
}

fn sorted(records: Mutex<Vec<OpRecord>>) -> Vec<OpRecord> {
    let mut v = records.into_inner().expect("no submitter panics");
    v.sort_by_key(|r| r.index);
    v
}
