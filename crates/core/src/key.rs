//! Every key, written and read in one place: the machine fingerprint, a
//! source's identity, the scope of an evaluation and its point keys
//! (read back by [`EvalScope::parse`]), and the tuned-database key. A
//! timed point is reused, across processes, only under an equal key.
//!
//! Two spellings are Rust's `Debug` form, each written once here: the
//! machine hash input ([`machine_fingerprint`]) and the parameter label
//! ([`params_label`]). Replacing either is a format change: every cache
//! entry, trace and fault draw on disk is keyed by them.

use crate::runner::Context;
use crate::timer::Timer;
use ifko_fko::TransformParams;
use ifko_xsim::isa::Prec;
use ifko_xsim::{opteron, p4e, MachineConfig};

/// FNV-1a over a byte string (stable fingerprinting, no external deps).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A stable fingerprint of a machine configuration: its name plus a hash
/// of every model parameter, so "basically identical systems, varying
/// only in the type or size of cache" (§1) never share cache entries.
pub fn machine_fingerprint(machine: &MachineConfig) -> String {
    let hash = fnv64(format!("{machine:?}").as_bytes());
    format!("{}#{hash:016x}", machine.name)
}

/// The machine model of this build whose fingerprint is `fingerprint`.
pub fn machine_of(fingerprint: &str) -> Option<MachineConfig> {
    [p4e(), opteron()]
        .into_iter()
        .find(|m| machine_fingerprint(m) == fingerprint)
}

/// The fingerprint `name` stands for: a model name (`p4e` / `opteron`)
/// is fingerprinted, a fingerprint (a foreign build's, say) is kept.
pub fn fingerprint_of(name: &str) -> Option<String> {
    let model = MachineConfig::by_name(name).map(|m| machine_fingerprint(&m));
    model.or_else(|| name.contains('#').then(|| name.to_string()))
}

/// A HIL source's identity: the hash of its text.
pub fn source_hash(src: &str) -> u64 {
    fnv64(src.as_bytes())
}

/// The kernel label of a HIL source, which has no registry name: its
/// routine name plus its [`source_hash`], so two bodies never collide.
pub fn source_label(routine: &str, src: &str) -> String {
    format!("hil:{routine}#{:016x}", source_hash(src))
}

/// A parameter point's label: the tail of its point key, and the
/// `params` of its trace events.
pub fn params_label(p: &TransformParams) -> String {
    format!("{p:?}")
}

/// A precision's label in a tuned-database key (`S` / `D`).
pub fn prec_label(prec: Prec) -> &'static str {
    match prec {
        Prec::S => "S",
        Prec::D => "D",
    }
}

/// The precision a [`prec_label`] names.
pub fn prec_of(label: &str) -> Option<Prec> {
    [Prec::S, Prec::D]
        .into_iter()
        .find(|&p| prec_label(p) == label)
}

/// Everything that identifies one evaluation universe. Two evaluations
/// with equal scopes and equal parameters are interchangeable.
#[derive(Clone, Debug, PartialEq)]
pub struct EvalScope {
    /// Kernel label (BLAS name, or a [`source_label`]).
    pub kernel: String,
    /// Machine fingerprint (see [`machine_fingerprint`]).
    pub machine: String,
    pub context: Context,
    /// Problem size.
    pub n: usize,
    /// Workload seed.
    pub seed: u64,
    key: String,
}

impl EvalScope {
    pub fn new(
        kernel: impl Into<String>,
        machine: &MachineConfig,
        context: Context,
        n: usize,
        seed: u64,
        timer: &Timer,
    ) -> EvalScope {
        let timer = format!("r{}i{}s{:x}", timer.reps, timer.interference, timer.seed);
        let machine = machine_fingerprint(machine);
        EvalScope::of(kernel.into(), machine, context, n, seed, &timer)
    }

    fn of(kernel: String, machine: String, ctx: Context, n: usize, seed: u64, timer: &str) -> Self {
        let key = format!("{kernel}@{machine}/{}/n{n}/s{seed:x}/{timer}", ctx.label());
        EvalScope {
            kernel,
            machine,
            context: ctx,
            n,
            seed,
            key,
        }
    }

    /// The scope whose [`EvalScope::key`] is `key`
    /// (`kernel@machine/context/n{N}/s{seed:x}/timer`), if any.
    pub fn parse(key: &str) -> Option<EvalScope> {
        let (kernel, rest) = key.split_once('@')?;
        let mut at = rest.splitn(5, '/');
        let (machine, context) = (at.next()?, Context::from_label(at.next()?)?);
        let n = at.next()?.strip_prefix('n')?.parse().ok()?;
        let seed = u64::from_str_radix(at.next()?.strip_prefix('s')?, 16).ok()?;
        let scope = EvalScope::of(kernel.into(), machine.into(), context, n, seed, at.next()?);
        (scope.key == key).then_some(scope)
    }

    /// The canonical scope prefix of every cache key in this scope.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Full cache key for one parameter point.
    pub fn point_key(&self, p: &TransformParams) -> String {
        format!("{}|{}", self.key, params_label(p))
    }

    /// The [`tuned_key`] of this scope's kernel at `prec`, revision `rev`.
    pub fn tuned_key(&self, prec: Prec, rev: &str) -> String {
        tuned_key(&self.kernel, prec, &self.machine, self.context, rev)
    }
}

/// The key a winner is stored under in the tuned database.
pub fn tuned_key(kernel: &str, prec: Prec, machine: &str, context: Context, rev: &str) -> String {
    db_key(kernel, prec_label(prec), machine, context.label(), rev)
}

/// [`tuned_key`] over labels (`S` / `D`, `oc` / `ic`).
pub fn db_key(kernel: &str, prec: &str, machine: &str, context: &str, rev: &str) -> String {
    format!("{kernel}|{prec}|{machine}|{context}|{rev}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_scope_key_parses_back_to_its_scope() {
        let src = "ROUTINE dot\n";
        for (kernel, machine, context, timer) in [
            (
                "ddot".to_string(),
                p4e(),
                Context::OutOfCache,
                Timer::quick(),
            ),
            (
                source_label("dot", src),
                opteron(),
                Context::InL2,
                Timer::default(),
            ),
        ] {
            let scope = EvalScope::new(kernel, &machine, context, 20_000, 0xb1a5, &timer);
            assert_eq!(EvalScope::parse(scope.key()), Some(scope.clone()));
            assert_eq!(
                machine_of(&scope.machine).map(|m| m.name),
                Some(machine.name)
            );
        }
        // A trace written by hand keeps its bare machine name.
        let scope = EvalScope::parse("ddot@p4e/oc/n1024/sb1a5/r1i0sb1a5").unwrap();
        assert_eq!(
            (scope.machine.as_str(), scope.n, scope.seed),
            ("p4e", 1024, 0xb1a5)
        );
        for bad in [
            "s",
            "k@m/xx/n1/s1/t",
            "k@m/oc/n01/s1/t",
            "k@m/oc/n1/sz/t",
            "k@m/oc/n1",
        ] {
            assert_eq!(EvalScope::parse(bad), None, "{bad}");
        }
    }

    #[test]
    fn labels_read_back() {
        for prec in [Prec::S, Prec::D] {
            assert_eq!(prec_of(prec_label(prec)), Some(prec));
        }
        assert_eq!(prec_of("d"), None);
        let fp = machine_fingerprint(&opteron());
        assert_eq!(fingerprint_of("opteron").as_deref(), Some(fp.as_str()));
        assert_eq!(
            fingerprint_of("Foreign#0123").as_deref(),
            Some("Foreign#0123")
        );
        assert_eq!(fingerprint_of("vax"), None);
        assert_eq!(
            tuned_key("ddot", Prec::D, &fp, Context::InL2, "r1"),
            format!("ddot|D|{fp}|ic|r1")
        );
    }
}
