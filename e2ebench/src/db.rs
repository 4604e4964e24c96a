//! Pieces shared by the two workloads built on a `Database`: loading
//! self-checking rows, the WAL's counters, and the final read-back pass.

use spitfire_device::{StatsSnapshot, TimeScale};
use spitfire_txn::{Database, Wal};

use crate::check;
use crate::report::{ratio, CoreCounters, Report};

/// Rows per transaction when loading, as the server preloads.
const LOAD_BATCH: u64 = 256;

/// Insert keys `0..keys` into `table`, version 0 of each, stored as
/// `store(check value)`.
pub fn load(
    db: &Database,
    table: u32,
    keys: u64,
    value_len: usize,
    store: impl Fn(&[u8]) -> Vec<u8>,
) -> Result<(), String> {
    let mut value = vec![0u8; value_len];
    for start in (0..keys).step_by(LOAD_BATCH as usize) {
        let mut txn = db.begin();
        for k in start..(start + LOAD_BATCH).min(keys) {
            check::encode(k, 0, &mut value);
            db.insert(&mut txn, table, k, &store(&value))
                .map_err(|e| e.to_string())?;
        }
        db.commit(&mut txn).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Read every key of `table` in its own read-only transaction, with
/// emulated device delays switched off (this pass checks values, not
/// speed). `value` extracts the checked value from a stored row. Returns
/// the number of keys that fail their check.
pub fn verify_all(
    db: &Database,
    table: u32,
    keys: u64,
    value_len: usize,
    value: impl Fn(&[u8]) -> Option<&[u8]>,
    report: &mut Report,
) -> u64 {
    db.set_time_scale(TimeScale::ZERO);
    let mut bad = 0;
    for key in 0..keys {
        let mut txn = db.begin();
        let problem = match db.read(&txn, table, key) {
            Err(e) => Some(e.to_string()),
            Ok(row) => match value(&row) {
                None => Some("deleted".to_string()),
                Some(v) => check::verify(key, v, value_len)
                    .err()
                    .map(|m| format!("{m:?}")),
            },
        };
        let _ = db.commit(&mut txn);
        if let Some(p) = problem {
            bad += 1;
            if bad <= 5 {
                report.notes.push(format!("final pass: key {key}: {p}"));
            }
        }
    }
    bad
}

/// Counters of the buffer manager and the WAL under a database.
#[derive(Debug, Clone, Copy)]
pub struct DbCounters {
    /// Buffer manager and devices.
    pub core: CoreCounters,
    /// `Wal::current_lsn`.
    pub lsn: u64,
    /// The WAL's NVM log buffer.
    pub nvm: StatsSnapshot,
    /// The WAL's SSD file.
    pub file: StatsSnapshot,
}

impl DbCounters {
    /// Read the counters of `db`.
    pub fn read(db: &Database) -> Self {
        let wal: &Wal = db.wal();
        DbCounters {
            core: CoreCounters::read(db.buffer_manager()),
            lsn: wal.current_lsn(),
            nvm: wal.nvm_stats().snapshot(),
            file: wal.file_stats().snapshot(),
        }
    }
}

/// Set the `core.*`, `device.*`, `wal.*` and `nvm_write_bytes_per_op`
/// metrics from counters read around a window of `ops` ops, `commits` of
/// which wrote.
pub fn set_counter_metrics(r: &mut Report, b: &DbCounters, a: &DbCounters, ops: u64, commits: u64) {
    let core = a.core.since(&b.core);
    let nvm = a.nvm.delta(&b.nvm);
    let file = a.file.delta(&b.file);
    let per_op = |v: u64| ratio(v as f64, ops as f64);
    crate::report::set_core_counters(r, &core, ops);
    r.set(
        "nvm_write_bytes_per_op",
        per_op(core.nvm_bytes_written() + nvm.bytes_written),
    );
    r.set(
        "wal.bytes_per_commit",
        ratio((a.lsn - b.lsn) as f64, commits as f64),
    );
    r.set("wal.nvm_write_bytes_per_op", per_op(nvm.bytes_written));
    r.set("wal.nvm_fences_per_op", per_op(nvm.fences));
    r.set("wal.ssd_write_bytes_per_op", per_op(file.bytes_written));
}
