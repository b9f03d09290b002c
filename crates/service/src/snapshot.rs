//! Cache persistence: an append-only, corruption-tolerant snapshot log.
//!
//! Cached Decide is 58–438× faster than uncached (FIG-service-cache in
//! EXPERIMENTS.md), so a restart that forgets the cache throws away the
//! service's whole value proposition until the chase re-warms it. This
//! module gives the cache a disk form:
//!
//! ```text
//! file   := header record*
//! header := magic "RBQASNAP" (8 bytes) | version u32 LE | flags u32 LE
//! record := fingerprint u128 LE | payload_len u32 LE | crc32 u32 LE | payload
//! ```
//!
//! The payload is a self-contained binary encoding of one cached decision
//! (summary + synthesized plans), with interned constants spelled out as
//! strings so a fresh process — with a fresh [`ValueFactory`] — can
//! re-intern them. Durability rules, in the spirit of [`ExportStore`]
//! (`export.rs`):
//!
//! * **Atomic replace** — writes go to a `.tmp` sibling, are fsynced, and
//!   renamed into place; a crash mid-save leaves the previous snapshot.
//! * **Never fatal** — a load skips damage record-by-record: a flipped
//!   byte fails that record's CRC (skip, continue), a truncated tail ends
//!   the scan (keep the prefix), an alien magic/version drops the whole
//!   file (start cold). Every skip is counted, none is an `Err`.
//! * **Compacted on load** — records are keyed by fingerprint and later
//!   records win, so appending is always safe and the in-memory form is
//!   the compacted one.
//!
//! [`ExportStore`]: crate::ExportStore

use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;

use rustc_hash::FxHashMap;

use rbqa_access::{Command, Condition, Plan, RaExpr};
use rbqa_common::{NullId, Value, ValueFactory};
use rbqa_core::{Answerability, ConstraintClass, DecisionSummary, SimplificationKind, Strategy};

/// File magic: identifies a cache snapshot.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"RBQASNAP";
/// Current snapshot format version. A mismatch skips the whole file.
pub const SNAPSHOT_VERSION: u32 = 1;

/// What a snapshot load or save touched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Records surviving after compaction (load) or written (save).
    pub records: usize,
    /// Records (or, on a header mismatch, whole files) skipped as damaged.
    pub skipped: usize,
    /// Size of the snapshot file in bytes.
    pub bytes: u64,
}

// --- CRC-32 (IEEE) ------------------------------------------------------

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = build_crc_table();

/// CRC-32 (IEEE 802.3) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// --- Snapshot file I/O --------------------------------------------------

/// Writes a complete snapshot atomically (temp file + rename), one record
/// per `(fingerprint, payload)` pair.
pub fn write_snapshot(path: &Path, records: &[(u128, &[u8])]) -> io::Result<SnapshotStats> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let mut body =
        Vec::with_capacity(16 + records.iter().map(|(_, p)| 28 + p.len()).sum::<usize>());
    body.extend_from_slice(SNAPSHOT_MAGIC);
    body.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    body.extend_from_slice(&0u32.to_le_bytes());
    for (fingerprint, payload) in records {
        body.extend_from_slice(&fingerprint.to_le_bytes());
        body.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        body.extend_from_slice(&crc32(payload).to_le_bytes());
        body.extend_from_slice(payload);
    }
    let tmp = path.with_extension("snap.tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&body)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    Ok(SnapshotStats {
        records: records.len(),
        skipped: 0,
        bytes: body.len() as u64,
    })
}

/// Loads and compacts a snapshot. Damage is skipped, never fatal: the
/// result is whatever prefix/records survive, plus counts of what didn't.
/// Only a missing-file or read error is an `Err` (callers treat a missing
/// snapshot as a cold start).
pub fn read_snapshot(path: &Path) -> io::Result<(FxHashMap<u128, Vec<u8>>, SnapshotStats)> {
    let mut bytes = Vec::new();
    fs::File::open(path)?.read_to_end(&mut bytes)?;
    let total = bytes.len() as u64;
    let mut records = FxHashMap::default();
    let mut skipped = 0usize;
    if bytes.len() < 16 || &bytes[..8] != SNAPSHOT_MAGIC {
        return Ok((
            records,
            SnapshotStats {
                records: 0,
                skipped: 1,
                bytes: total,
            },
        ));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != SNAPSHOT_VERSION {
        return Ok((
            records,
            SnapshotStats {
                records: 0,
                skipped: 1,
                bytes: total,
            },
        ));
    }
    let mut at = 16usize;
    while at < bytes.len() {
        if bytes.len() - at < 24 {
            // Truncated record header: keep the prefix.
            skipped += 1;
            break;
        }
        let fingerprint = u128::from_le_bytes(bytes[at..at + 16].try_into().unwrap());
        let len = u32::from_le_bytes(bytes[at + 16..at + 20].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[at + 20..at + 24].try_into().unwrap());
        at += 24;
        if bytes.len() - at < len {
            // Truncated payload: keep the prefix.
            skipped += 1;
            break;
        }
        let payload = &bytes[at..at + len];
        at += len;
        if crc32(payload) != crc {
            // A flipped byte inside one record loses that record only —
            // the length field still frames the next one.
            skipped += 1;
            continue;
        }
        records.insert(fingerprint, payload.to_vec());
    }
    let surviving = records.len();
    Ok((
        records,
        SnapshotStats {
            records: surviving,
            skipped,
            bytes: total,
        },
    ))
}

// --- Decision payload encoding ------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_indices(out: &mut Vec<u8>, indices: &[usize]) {
    put_u32(out, indices.len() as u32);
    for &i in indices {
        put_u32(out, i as u32);
    }
}

fn put_value(out: &mut Vec<u8>, value: Value, display: &dyn Fn(Value) -> String) {
    match value {
        Value::Const(_) => {
            out.push(0);
            put_str(out, &display(value));
        }
        Value::Null(id) => {
            out.push(1);
            put_u64(out, id.raw());
        }
    }
}

fn put_condition(out: &mut Vec<u8>, condition: &Condition, display: &dyn Fn(Value) -> String) {
    match condition {
        Condition::True => out.push(0),
        Condition::EqColumns(a, b) => {
            out.push(1);
            put_u32(out, *a as u32);
            put_u32(out, *b as u32);
        }
        Condition::EqConst(column, value) => {
            out.push(2);
            put_u32(out, *column as u32);
            put_value(out, *value, display);
        }
        Condition::And(left, right) => {
            out.push(3);
            put_condition(out, left, display);
            put_condition(out, right, display);
        }
    }
}

fn put_expr(out: &mut Vec<u8>, expr: &RaExpr, display: &dyn Fn(Value) -> String) {
    match expr {
        RaExpr::Table(name) => {
            out.push(0);
            put_str(out, name);
        }
        RaExpr::Constant { arity, rows } => {
            out.push(1);
            put_u32(out, *arity as u32);
            put_u32(out, rows.len() as u32);
            for row in rows {
                for &value in row {
                    put_value(out, value, display);
                }
            }
        }
        RaExpr::Select { input, condition } => {
            out.push(2);
            put_expr(out, input, display);
            put_condition(out, condition, display);
        }
        RaExpr::Project { input, columns } => {
            out.push(3);
            put_expr(out, input, display);
            put_indices(out, columns);
        }
        RaExpr::Join { left, right, on } => {
            out.push(4);
            put_expr(out, left, display);
            put_expr(out, right, display);
            put_u32(out, on.len() as u32);
            for &(l, r) in on {
                put_u32(out, l as u32);
                put_u32(out, r as u32);
            }
        }
        RaExpr::Union { left, right } => {
            out.push(5);
            put_expr(out, left, display);
            put_expr(out, right, display);
        }
    }
}

fn class_tag(class: ConstraintClass) -> u8 {
    match class {
        ConstraintClass::NoConstraints => 0,
        ConstraintClass::FdsOnly => 1,
        ConstraintClass::IdsOnly { .. } => 2,
        ConstraintClass::UidsAndFds => 3,
        ConstraintClass::FrontierGuardedTgds => 4,
        ConstraintClass::ArbitraryTgds => 5,
        ConstraintClass::Mixed => 6,
    }
}

/// Serializes one cached decision — summary plus plans — into a snapshot
/// record payload. `display` resolves interned constants to their spelling
/// (must be the factory the plans were built against).
pub fn encode_decision(
    summary: &DecisionSummary,
    plans: &[Arc<Plan>],
    display: &dyn Fn(Value) -> String,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.push(match summary.answerability {
        Answerability::Answerable => 0,
        Answerability::NotAnswerable => 1,
        Answerability::Unknown => 2,
    });
    out.push(class_tag(summary.constraint_class));
    put_u64(
        &mut out,
        match summary.constraint_class {
            ConstraintClass::IdsOnly { max_width } => max_width as u64,
            _ => 0,
        },
    );
    out.push(match summary.simplification {
        SimplificationKind::None => 0,
        SimplificationKind::ExistenceCheck => 1,
        SimplificationKind::Fd => 2,
        SimplificationKind::Choice => 3,
    });
    out.push(match summary.strategy {
        Strategy::IdLinearization => 0,
        Strategy::FdSimplificationChase => 1,
        Strategy::ChoiceSeparabilityChase => 2,
        Strategy::ChoiceChase => 3,
        Strategy::ForcedAxiomStyle => 4,
    });
    out.push(summary.complete as u8);
    put_u64(&mut out, summary.chase_rounds as u64);
    put_u64(&mut out, summary.chased_facts as u64);
    out.push(summary.has_plan as u8);
    put_u32(&mut out, plans.len() as u32);
    for plan in plans {
        put_str(&mut out, plan.output_table());
        put_u32(&mut out, plan.commands().len() as u32);
        for command in plan.commands() {
            match command {
                Command::Middleware { output, expr } => {
                    out.push(0);
                    put_str(&mut out, output);
                    put_expr(&mut out, expr, display);
                }
                Command::Access {
                    output,
                    method,
                    input,
                    input_map,
                    output_map,
                } => {
                    out.push(1);
                    put_str(&mut out, output);
                    put_str(&mut out, method);
                    put_expr(&mut out, input, display);
                    put_indices(&mut out, input_map);
                    put_indices(&mut out, output_map);
                }
            }
        }
    }
    out
}

/// Bounds-checked cursor over a record payload. Every getter returns
/// `None` past the end, so damaged payloads decode to `None`, never panic.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.bytes.len() - self.at < n {
            return None;
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn indices(&mut self) -> Option<Vec<usize>> {
        let len = self.u32()? as usize;
        if len > self.bytes.len() - self.at {
            return None;
        }
        (0..len).map(|_| self.u32().map(|v| v as usize)).collect()
    }

    fn value(&mut self, values: &mut ValueFactory) -> Option<Value> {
        match self.u8()? {
            0 => Some(values.constant(&self.str()?)),
            1 => Some(Value::Null(NullId::from_raw(self.u64()?))),
            _ => None,
        }
    }

    fn condition(&mut self, values: &mut ValueFactory, depth: usize) -> Option<Condition> {
        if depth == 0 {
            return None;
        }
        match self.u8()? {
            0 => Some(Condition::True),
            1 => Some(Condition::EqColumns(
                self.u32()? as usize,
                self.u32()? as usize,
            )),
            2 => Some(Condition::EqConst(
                self.u32()? as usize,
                self.value(values)?,
            )),
            3 => Some(Condition::And(
                Box::new(self.condition(values, depth - 1)?),
                Box::new(self.condition(values, depth - 1)?),
            )),
            _ => None,
        }
    }

    fn expr(&mut self, values: &mut ValueFactory, depth: usize) -> Option<RaExpr> {
        if depth == 0 {
            return None;
        }
        match self.u8()? {
            0 => Some(RaExpr::Table(self.str()?)),
            1 => {
                let arity = self.u32()? as usize;
                let n_rows = self.u32()? as usize;
                // Bound the row count before allocating for it: every
                // value takes at least one byte, and an arity-0 table
                // holds at most one distinct row.
                let max_rows = match arity {
                    0 => 1,
                    _ => (self.bytes.len() - self.at) / arity,
                };
                if n_rows > max_rows {
                    return None;
                }
                let mut rows = Vec::with_capacity(n_rows);
                for _ in 0..n_rows {
                    let mut row = Vec::with_capacity(arity);
                    for _ in 0..arity {
                        row.push(self.value(values)?);
                    }
                    rows.push(row);
                }
                Some(RaExpr::Constant { arity, rows })
            }
            2 => Some(RaExpr::Select {
                input: Box::new(self.expr(values, depth - 1)?),
                condition: self.condition(values, depth - 1)?,
            }),
            3 => Some(RaExpr::Project {
                input: Box::new(self.expr(values, depth - 1)?),
                columns: self.indices()?,
            }),
            4 => {
                let left = Box::new(self.expr(values, depth - 1)?);
                let right = Box::new(self.expr(values, depth - 1)?);
                let n = self.u32()? as usize;
                if n > self.bytes.len() - self.at {
                    return None;
                }
                let on = (0..n)
                    .map(|_| Some((self.u32()? as usize, self.u32()? as usize)))
                    .collect::<Option<Vec<_>>>()?;
                Some(RaExpr::Join { left, right, on })
            }
            5 => Some(RaExpr::Union {
                left: Box::new(self.expr(values, depth - 1)?),
                right: Box::new(self.expr(values, depth - 1)?),
            }),
            _ => None,
        }
    }
}

/// Maximum nesting of RA expressions / conditions a record may carry.
/// Synthesized plans are shallow; this only guards the decoder's stack
/// against adversarial payloads.
const MAX_DEPTH: usize = 64;

/// Deserializes a snapshot record payload back into a decision summary
/// and its plans, re-interning constants into `values`. Returns `None`
/// on any structural damage (the caller falls back to computing).
pub fn decode_decision(
    bytes: &[u8],
    values: &mut ValueFactory,
) -> Option<(DecisionSummary, Vec<Arc<Plan>>)> {
    let mut c = Cursor { bytes, at: 0 };
    let answerability = match c.u8()? {
        0 => Answerability::Answerable,
        1 => Answerability::NotAnswerable,
        2 => Answerability::Unknown,
        _ => return None,
    };
    let class_tag = c.u8()?;
    let max_width = c.u64()? as usize;
    let constraint_class = match class_tag {
        0 => ConstraintClass::NoConstraints,
        1 => ConstraintClass::FdsOnly,
        2 => ConstraintClass::IdsOnly { max_width },
        3 => ConstraintClass::UidsAndFds,
        4 => ConstraintClass::FrontierGuardedTgds,
        5 => ConstraintClass::ArbitraryTgds,
        6 => ConstraintClass::Mixed,
        _ => return None,
    };
    let simplification = match c.u8()? {
        0 => SimplificationKind::None,
        1 => SimplificationKind::ExistenceCheck,
        2 => SimplificationKind::Fd,
        3 => SimplificationKind::Choice,
        _ => return None,
    };
    let strategy = match c.u8()? {
        0 => Strategy::IdLinearization,
        1 => Strategy::FdSimplificationChase,
        2 => Strategy::ChoiceSeparabilityChase,
        3 => Strategy::ChoiceChase,
        4 => Strategy::ForcedAxiomStyle,
        _ => return None,
    };
    let complete = c.u8()? != 0;
    let chase_rounds = c.u64()? as usize;
    let chased_facts = c.u64()? as usize;
    let has_plan = c.u8()? != 0;
    let n_plans = c.u32()? as usize;
    if n_plans > bytes.len() {
        return None;
    }
    let mut plans = Vec::with_capacity(n_plans);
    for _ in 0..n_plans {
        let output_table = c.str()?;
        let n_commands = c.u32()? as usize;
        if n_commands > bytes.len() {
            return None;
        }
        let mut commands = Vec::with_capacity(n_commands);
        for _ in 0..n_commands {
            let command = match c.u8()? {
                0 => Command::Middleware {
                    output: c.str()?,
                    expr: c.expr(values, MAX_DEPTH)?,
                },
                1 => Command::Access {
                    output: c.str()?,
                    method: c.str()?,
                    input: c.expr(values, MAX_DEPTH)?,
                    input_map: c.indices()?,
                    output_map: c.indices()?,
                },
                _ => return None,
            };
            commands.push(command);
        }
        plans.push(Arc::new(Plan::new(commands, output_table)));
    }
    if c.at != bytes.len() {
        // Trailing garbage means the record is not what we wrote.
        return None;
    }
    let summary = DecisionSummary {
        answerability,
        constraint_class,
        simplification,
        strategy,
        complete,
        chase_rounds,
        chased_facts,
        has_plan,
    };
    Some((summary, plans))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_summary() -> DecisionSummary {
        DecisionSummary {
            answerability: Answerability::Answerable,
            constraint_class: ConstraintClass::IdsOnly { max_width: 2 },
            simplification: SimplificationKind::ExistenceCheck,
            strategy: Strategy::IdLinearization,
            complete: true,
            chase_rounds: 7,
            chased_facts: 123,
            has_plan: true,
        }
    }

    fn sample_plan(values: &mut ValueFactory) -> Arc<Plan> {
        let c = values.constant("ada");
        Arc::new(Plan::new(
            vec![
                Command::Middleware {
                    output: "t0".into(),
                    expr: RaExpr::Constant {
                        arity: 1,
                        rows: vec![vec![c]],
                    },
                },
                Command::Access {
                    output: "t1".into(),
                    method: "mt".into(),
                    input: RaExpr::Select {
                        input: Box::new(RaExpr::Table("t0".into())),
                        condition: Condition::And(
                            Box::new(Condition::EqConst(0, c)),
                            Box::new(Condition::True),
                        ),
                    },
                    input_map: vec![0],
                    output_map: vec![0, 2],
                },
                Command::Middleware {
                    output: "t2".into(),
                    expr: RaExpr::Union {
                        left: Box::new(RaExpr::Project {
                            input: Box::new(RaExpr::Table("t1".into())),
                            columns: vec![1],
                        }),
                        right: Box::new(RaExpr::Project {
                            input: Box::new(RaExpr::Join {
                                left: Box::new(RaExpr::Table("t1".into())),
                                right: Box::new(RaExpr::Table("t0".into())),
                                on: vec![(0, 0)],
                            }),
                            columns: vec![2],
                        }),
                    },
                },
            ],
            "t2".into(),
        ))
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn decision_roundtrips_through_fresh_factory() {
        let mut values = ValueFactory::new();
        let summary = sample_summary();
        let plans = vec![sample_plan(&mut values)];
        let encoded = encode_decision(&summary, &plans, &|v| values.display(v));
        let mut fresh = ValueFactory::new();
        // Different interner state so re-interning must go by spelling.
        fresh.constant("zzz");
        let (decoded_summary, decoded_plans) =
            decode_decision(&encoded, &mut fresh).expect("decodes");
        assert_eq!(decoded_summary, summary);
        assert_eq!(decoded_plans.len(), 1);
        assert_eq!(decoded_plans[0].output_table(), "t2");
        assert_eq!(decoded_plans[0].commands().len(), 3);
        // The constant decoded by spelling, not by raw id.
        match &decoded_plans[0].commands()[0] {
            Command::Middleware {
                expr: RaExpr::Constant { rows, .. },
                ..
            } => assert_eq!(fresh.display(rows[0][0]), "ada"),
            other => panic!("unexpected command {other:?}"),
        }
        // Re-encoding from the fresh factory is stable.
        let re = encode_decision(&decoded_summary, &decoded_plans, &|v| fresh.display(v));
        assert_eq!(re, encoded);
    }

    #[test]
    fn damaged_payloads_decode_to_none() {
        let mut values = ValueFactory::new();
        let encoded = encode_decision(&sample_summary(), &[sample_plan(&mut values)], &|v| {
            values.display(v)
        });
        for cut in [0, 1, 5, encoded.len() / 2, encoded.len() - 1] {
            let mut fresh = ValueFactory::new();
            assert!(
                decode_decision(&encoded[..cut], &mut fresh).is_none(),
                "truncation at {cut} must not decode"
            );
        }
        let mut trailing = encoded.clone();
        trailing.push(0);
        assert!(decode_decision(&trailing, &mut ValueFactory::new()).is_none());
        let mut bad_tag = encoded.clone();
        bad_tag[0] = 9;
        assert!(decode_decision(&bad_tag, &mut ValueFactory::new()).is_none());

        // An arity-0 constant claiming u32::MAX rows: no byte bounds an
        // empty row, so the count itself must be rejected before any
        // allocation is sized by it.
        let unit_plan = Arc::new(Plan::new(
            vec![Command::Middleware {
                output: "t".into(),
                expr: RaExpr::unit(),
            }],
            "t".into(),
        ));
        let mut huge_unit =
            encode_decision(&sample_summary(), &[unit_plan], &|v| values.display(v));
        // The record ends with the unit constant's tag, arity 0 and row
        // count 1; patch the row count.
        let n_rows_at = huge_unit.len() - 4;
        assert_eq!(&huge_unit[n_rows_at..], &1u32.to_le_bytes()[..]);
        huge_unit[n_rows_at..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_decision(&huge_unit, &mut ValueFactory::new()).is_none());
    }

    #[test]
    fn snapshot_file_roundtrip_compacts_last_record() {
        let dir = std::env::temp_dir().join(format!("rbqa-snap-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("cache.snap");
        let records: Vec<(u128, &[u8])> = vec![
            (1, b"one".as_slice()),
            (2, b"two".as_slice()),
            (1, b"one-newer".as_slice()),
        ];
        let written = write_snapshot(&path, &records).unwrap();
        assert_eq!(written.records, 3);
        let (loaded, stats) = read_snapshot(&path).unwrap();
        assert_eq!(stats.skipped, 0);
        assert_eq!(stats.records, 2, "compaction keeps one record per key");
        assert_eq!(loaded[&1], b"one-newer");
        assert_eq!(loaded[&2], b"two");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_skipped_never_fatal() {
        let dir = std::env::temp_dir().join(format!("rbqa-snap-corrupt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.snap");
        let records: Vec<(u128, &[u8])> = vec![
            (10, b"alpha".as_slice()),
            (11, b"beta".as_slice()),
            (12, b"gamma".as_slice()),
        ];
        write_snapshot(&path, &records).unwrap();
        let pristine = fs::read(&path).unwrap();

        // Flip one payload byte of the middle record: that record fails
        // its CRC, the other two survive.
        let mut flipped = pristine.clone();
        let beta_at = flipped.windows(4).position(|w| w == b"beta").unwrap();
        flipped[beta_at] ^= 0xFF;
        fs::write(&path, &flipped).unwrap();
        let (loaded, stats) = read_snapshot(&path).unwrap();
        assert_eq!(stats.skipped, 1);
        assert_eq!(loaded.len(), 2);
        assert!(loaded.contains_key(&10) && loaded.contains_key(&12));

        // Truncate mid-way through the last record: the prefix survives.
        let truncated = &pristine[..pristine.len() - 3];
        fs::write(&path, truncated).unwrap();
        let (loaded, stats) = read_snapshot(&path).unwrap();
        assert_eq!(stats.skipped, 1);
        assert_eq!(loaded.len(), 2);

        // Bump the version header: the whole file is politely ignored.
        let mut versioned = pristine.clone();
        versioned[8] = versioned[8].wrapping_add(1);
        fs::write(&path, &versioned).unwrap();
        let (loaded, stats) = read_snapshot(&path).unwrap();
        assert!(loaded.is_empty());
        assert_eq!(stats.skipped, 1);

        // Alien magic: same story.
        fs::write(&path, b"NOTASNAPshouldbeskipped").unwrap();
        let (loaded, stats) = read_snapshot(&path).unwrap();
        assert!(loaded.is_empty());
        assert_eq!(stats.skipped, 1);

        // Missing file is the caller's cold-start signal.
        let _ = fs::remove_dir_all(&dir);
        assert!(read_snapshot(&path).is_err());
    }
}
