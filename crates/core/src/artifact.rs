//! Shippable tune-cache artifacts: `ifko pack` serializes a tuned-results
//! database into one self-describing, checksummed text artifact, and
//! `ifko install` imports it into another database — the "ship the
//! autotune cache with your program" idiom, so a fresh deployment's
//! first tune short-circuits on a verified warm start instead of paying
//! full search cost.
//!
//! Format (JSONL, stable):
//!
//! ```text
//! {"magic":"ifko-tune-cache","version":1,"rev":"<repo-rev>","records":N,"checksum":"<fnv64 hex>"}
//! <record line 1>   — exactly `strategy::db::record_json`, key-sorted
//! ...
//! <record line N>
//! ```
//!
//! The checksum is FNV-64 over the record bytes (newlines included), so
//! a torn download or a hand-edit is rejected before anything is
//! imported. Install re-verifies each record whose kernel and machine
//! this build knows (recompile at the stored parameters → run → check
//! outputs) and rejects records that fail; records for unknown kernels
//! or machine fingerprints import unverified — the warm-start path
//! re-verifies every stored winner at tune time anyway, so an
//! unverified import can never produce a wrong answer, only a wasted
//! probe.

use crate::eval::{fnv64, machine_fingerprint};
use crate::json::{esc, parse_json};
use crate::runner::Context;
use crate::search::SearchOptions;
use crate::strategy::db::{parse_record, record_json};
use crate::strategy::{TunedDb, TunedRecord};
use crate::subject::{Oracle, Subject};
use ifko_blas::Kernel;
use ifko_fko::CompileOpts;
use ifko_xsim::{opteron, p4e, MachineConfig};

/// Artifact magic string (first manifest field).
pub const MAGIC: &str = "ifko-tune-cache";
/// Artifact format version.
pub const VERSION: u64 = 1;

/// A parsed artifact: the exporting repo revision plus its records.
#[derive(Clone, Debug)]
pub struct Artifact {
    pub rev: String,
    pub records: Vec<TunedRecord>,
}

/// Serialize a database into artifact text (manifest + key-sorted
/// records). The record lines are byte-identical to the database's own
/// serialization, so a packed winner installs bit-identical.
pub fn pack(db: &TunedDb) -> String {
    pack_records(db.rev(), &db.records())
}

/// [`pack`] over an explicit record list.
pub fn pack_records(rev: &str, records: &[TunedRecord]) -> String {
    let mut recs: Vec<&TunedRecord> = records.iter().collect();
    recs.sort_by(|a, b| a.key.cmp(&b.key));
    let mut body = String::with_capacity(recs.len() * 256);
    for rec in &recs {
        body.push_str(&record_json(rec));
        body.push('\n');
    }
    let checksum = fnv64(body.as_bytes());
    format!(
        "{{\"magic\":\"{MAGIC}\",\"version\":{VERSION},\"rev\":\"{}\",\"records\":{},\
         \"checksum\":\"{checksum:016x}\"}}\n{body}",
        esc(rev),
        recs.len(),
    )
}

/// Parse and validate artifact text: magic, version, record count, and
/// checksum must all hold, and every record line must parse.
pub fn parse(text: &str) -> Result<Artifact, String> {
    let (manifest, body) = text
        .split_once('\n')
        .ok_or_else(|| "empty artifact".to_string())?;
    let m = parse_json(manifest.trim()).ok_or_else(|| "unparseable manifest".to_string())?;
    let magic = m.get("magic").and_then(|j| j.as_str()).unwrap_or("");
    if magic != MAGIC {
        return Err(format!(
            "bad magic {magic:?}: not an ifko tune-cache artifact"
        ));
    }
    let version = m.get("version").and_then(|j| j.as_u64()).unwrap_or(0);
    if version != VERSION {
        return Err(format!(
            "unsupported artifact version {version} (expected {VERSION})"
        ));
    }
    let expect_n = m
        .get("records")
        .and_then(|j| j.as_u64())
        .ok_or_else(|| "manifest missing record count".to_string())?;
    let expect_sum = m
        .get("checksum")
        .and_then(|j| j.as_str())
        .ok_or_else(|| "manifest missing checksum".to_string())?
        .to_string();
    let got_sum = format!("{:016x}", fnv64(body.as_bytes()));
    if got_sum != expect_sum {
        return Err(format!(
            "checksum mismatch: manifest {expect_sum}, content {got_sum} (torn or edited artifact)"
        ));
    }
    let mut records = Vec::new();
    for (i, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec =
            parse_record(line).ok_or_else(|| format!("unparseable record on line {}", i + 2))?;
        records.push(rec);
    }
    if records.len() as u64 != expect_n {
        return Err(format!(
            "record count mismatch: manifest says {expect_n}, found {}",
            records.len()
        ));
    }
    Ok(Artifact {
        rev: m
            .get("rev")
            .and_then(|j| j.as_str())
            .unwrap_or("unknown")
            .to_string(),
        records,
    })
}

/// Outcome of re-verifying one record against this build.
#[derive(Clone, Debug, PartialEq)]
pub enum VerifyOutcome {
    /// Recompiled at the stored parameters and produced correct outputs.
    Verified,
    /// This build cannot check it (unknown kernel name or machine
    /// fingerprint — e.g. a generic `hil:` tune or a foreign model).
    Unverifiable(String),
    /// Recompile or output check failed: the record is wrong for this
    /// build and must not be imported.
    Failed(String),
}

/// Re-verify a record: recompile its kernel at the stored parameter
/// point on its machine and check outputs against the reference.
pub fn verify_record(rec: &TunedRecord) -> VerifyOutcome {
    let Some(kernel) = Kernel::by_name(&rec.kernel) else {
        return VerifyOutcome::Unverifiable(format!("unknown kernel {:?}", rec.kernel));
    };
    let Some(machine) = find_machine(&rec.machine) else {
        return VerifyOutcome::Unverifiable(format!("unknown machine {:?}", rec.machine));
    };
    let Some(context) = Context::from_label(&rec.context) else {
        return VerifyOutcome::Unverifiable(format!("unknown context {:?}", rec.context));
    };
    // Correctness does not depend on the problem size: clamp the stored
    // tuning size so a verify pass stays cheap even for huge-N records.
    let n = rec.n.clamp(16, 4096);
    let opts = SearchOptions::default();
    let oracle = Oracle::Reference { kernel };
    let subject = match Subject::open(oracle, &machine, context, n, rec.seed, &opts) {
        Ok(s) => s,
        Err(e) => return VerifyOutcome::Failed(format!("front end: {e}")),
    };
    let compiled = match subject.sess.compile(&rec.params, CompileOpts::default()) {
        Ok(c) => c,
        Err(e) => return VerifyOutcome::Failed(format!("compile at stored params: {e}")),
    };
    let ran = match subject.run(&rec.params, &compiled, None, None) {
        Ok(ran) => ran,
        Err(e) => return VerifyOutcome::Failed(format!("run: {e}")),
    };
    match ran.verdict {
        Ok(()) => VerifyOutcome::Verified,
        Err(e) => VerifyOutcome::Failed(format!("outputs: {e}")),
    }
}

fn find_machine(fingerprint: &str) -> Option<MachineConfig> {
    [p4e(), opteron()]
        .into_iter()
        .find(|m| machine_fingerprint(m) == fingerprint)
}

/// What `install` did with an artifact.
#[derive(Clone, Debug, Default)]
pub struct InstallReport {
    /// Records stored into the target database.
    pub installed: usize,
    /// Of those, records that passed re-verification.
    pub verified: usize,
    /// Of those, records this build could not check (imported anyway —
    /// the tune-time warm start re-verifies before trusting them).
    pub unverified: usize,
    /// Records rejected by re-verification: `(key, reason)`.
    pub rejected: Vec<(String, String)>,
}

/// Import artifact text into `db`. With `verify`, each record is gated
/// through [`verify_record`]: failures are rejected, unverifiable
/// records import with a note. Without it, everything imports as-is.
pub fn install(text: &str, db: &TunedDb, verify: bool) -> Result<InstallReport, String> {
    let art = parse(text)?;
    let mut report = InstallReport::default();
    for rec in &art.records {
        if verify {
            match verify_record(rec) {
                VerifyOutcome::Verified => report.verified += 1,
                VerifyOutcome::Unverifiable(_) => report.unverified += 1,
                VerifyOutcome::Failed(reason) => {
                    report.rejected.push((rec.key.clone(), reason));
                    continue;
                }
            }
        }
        db.store(rec);
        report.installed += 1;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::db::db_key;
    use ifko_blas::hil_src::hil_source;
    use ifko_blas::ALL_KERNELS;
    use ifko_fko::CompileSession;
    use ifko_fko::TransformParams;

    fn record_for(kernel: Kernel, machine: &MachineConfig, params: TransformParams) -> TunedRecord {
        let prec = format!("{:?}", kernel.prec);
        let fp = machine_fingerprint(machine);
        TunedRecord {
            key: db_key(&kernel.name(), &prec, &fp, "oc", "r1"),
            kernel: kernel.name(),
            prec,
            machine: fp,
            context: "oc".to_string(),
            rev: "r1".to_string(),
            n: 512,
            seed: 42,
            strategy: "line".to_string(),
            cycles: 1000,
            params,
            features: Some(vec![1.0, 2.0]),
        }
    }

    fn ddot() -> Kernel {
        *ALL_KERNELS.iter().find(|k| k.name() == "ddot").unwrap()
    }

    fn defaults_record() -> TunedRecord {
        let m = p4e();
        let k = ddot();
        let sess = CompileSession::from_source(&hil_source(k.op, k.prec), &m).unwrap();
        let params = TransformParams::defaults(sess.report(), &m);
        record_for(k, &m, params)
    }

    /// A record whose stored parameters cannot compile: accumulator
    /// expansion on dcopy, which has no accumulator candidates.
    fn broken_record() -> TunedRecord {
        let m = p4e();
        let k = *ALL_KERNELS.iter().find(|k| k.name() == "dcopy").unwrap();
        let sess = CompileSession::from_source(&hil_source(k.op, k.prec), &m).unwrap();
        let mut params = TransformParams::defaults(sess.report(), &m);
        params.accum_expand = 4;
        record_for(k, &m, params)
    }

    #[test]
    fn pack_parse_round_trips_bit_identical() {
        let rec = defaults_record();
        let text = pack_records("r1", std::slice::from_ref(&rec));
        let art = parse(&text).unwrap();
        assert_eq!(art.rev, "r1");
        assert_eq!(art.records, vec![rec.clone()]);
        // The record line inside the artifact is byte-identical to the
        // database serialization.
        assert!(text.contains(&record_json(&rec)));
    }

    /// The manifest writes the rev through the JSON escaper: a backslash
    /// or a quote in it reads back exactly.
    #[test]
    fn rev_is_escaped_in_the_manifest() {
        let rec = defaults_record();
        let text = pack_records("r\\1\"x", std::slice::from_ref(&rec));
        let art = parse(&text).unwrap();
        assert_eq!(art.rev, "r\\1\"x");
        assert_eq!(art.records, vec![rec]);
    }

    #[test]
    fn tampered_artifacts_are_rejected() {
        let text = pack_records("r1", &[defaults_record()]);
        // Flip one byte in the body.
        let tampered = text.replace("\"n\":512", "\"n\":513");
        assert!(parse(&tampered).unwrap_err().contains("checksum"));
        // Wrong magic.
        let bad = text.replacen(MAGIC, "not-a-cache", 1);
        assert!(parse(&bad).unwrap_err().contains("magic"));
        // Truncated body.
        let cut = &text[..text.len() - 10];
        assert!(parse(cut).is_err());
    }

    #[test]
    fn verify_gates_known_kernels_and_passes_unknown_through() {
        let good = defaults_record();
        assert_eq!(verify_record(&good), VerifyOutcome::Verified);

        let mut foreign = good.clone();
        foreign.kernel = "hil:mystery#0123".to_string();
        assert!(matches!(
            verify_record(&foreign),
            VerifyOutcome::Unverifiable(_)
        ));

        let mut alien = good.clone();
        alien.machine = "X99#0000000000000000".to_string();
        assert!(matches!(
            verify_record(&alien),
            VerifyOutcome::Unverifiable(_)
        ));

        // Stored parameters that no longer compile are rejected.
        match verify_record(&broken_record()) {
            VerifyOutcome::Failed(_) => {}
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn install_round_trip_into_fresh_db() {
        let dir = std::env::temp_dir().join(format!("ifko-artifact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let good = defaults_record();
        let text = pack_records("r1", &[good.clone(), broken_record()]);

        let db = TunedDb::open(&dir).unwrap();
        let report = install(&text, &db, true).unwrap();
        assert_eq!(report.installed, 1);
        assert_eq!(report.verified, 1);
        assert_eq!(report.rejected.len(), 1);
        let got = db.lookup(&good.key).unwrap();
        assert_eq!(
            record_json(&got),
            record_json(&good),
            "bit-identical import"
        );

        // Unverified install takes everything.
        let dir2 = std::env::temp_dir().join(format!("ifko-artifact2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir2);
        let db2 = TunedDb::open(&dir2).unwrap();
        let report = install(&text, &db2, false).unwrap();
        assert_eq!(report.installed, 2);
        assert_eq!(report.verified, 0);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }
}
