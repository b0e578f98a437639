//! Blocking client for the `ifkod` socket protocol — the library behind
//! `ifko tune --remote`, `ifko daemon <cmd>`, and the e2e tests.

use crate::proto::{esc, read_frame, write_frame, Polling};
use ifko::config::checked_n;
use ifko::report::{parse_json, Json};
use ifko::runner::Context;
use ifko::strategy::{Budget, StrategySpec};
use ifko::{SearchOptions, TuneConfig};
use ifko_xsim::MachineConfig;
use std::os::unix::net::UnixStream;
use std::path::Path;

/// One connection to a running daemon.
pub struct Client {
    stream: UnixStream,
}

/// A tune request under construction (every optional field has a
/// default, given by [`TuneRequest::config`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TuneRequest {
    /// BLAS-suite kernel name (e.g. `ddot`). Mutually exclusive with `src`.
    pub kernel: Option<String>,
    /// HIL kernel source for a generic tune.
    pub src: Option<String>,
    pub machine: String,
    pub context: String,
    pub n: Option<usize>,
    pub seed: Option<u64>,
    pub full: bool,
    pub strategy: Option<String>,
    pub budget: Option<String>,
}

impl TuneRequest {
    /// The wire form: `cmd` plus every field that is set.
    pub(crate) fn to_json(&self) -> String {
        let mut s = String::from("{\"cmd\":\"tune\"");
        if let Some(k) = &self.kernel {
            s.push_str(&format!(",\"kernel\":\"{}\"", esc(k)));
        }
        if let Some(src) = &self.src {
            s.push_str(&format!(",\"src\":\"{}\"", esc(src)));
        }
        if !self.machine.is_empty() {
            s.push_str(&format!(",\"machine\":\"{}\"", esc(&self.machine)));
        }
        if !self.context.is_empty() {
            s.push_str(&format!(",\"context\":\"{}\"", esc(&self.context)));
        }
        if let Some(n) = self.n {
            s.push_str(&format!(",\"n\":{n}"));
        }
        if let Some(seed) = self.seed {
            s.push_str(&format!(",\"seed\":{seed}"));
        }
        if self.full {
            s.push_str(",\"full\":true");
        }
        if let Some(st) = &self.strategy {
            s.push_str(&format!(",\"strategy\":\"{}\"", esc(st)));
        }
        if let Some(b) = &self.budget {
            s.push_str(&format!(",\"budget\":\"{}\"", esc(b)));
        }
        s.push('}');
        s
    }

    /// Read a request back from its wire form (the daemon's side of
    /// [`TuneRequest::to_json`]). An absent optional field stays unset, so
    /// the daemon's default applies; a field present with the wrong type
    /// is an error — falling back to the default there would tune a
    /// different workload than the one asked for and report success.
    pub(crate) fn from_json(v: &Json) -> Result<TuneRequest, String> {
        fn field<'a, T>(
            v: &'a Json,
            name: &str,
            what: &str,
            read: impl Fn(&'a Json) -> Option<T>,
        ) -> Result<Option<T>, String> {
            v.get(name)
                .map(|j| read(j).ok_or_else(|| format!("tune field `{name}` must be {what}")))
                .transpose()
        }
        let string = |name| field(v, name, "a string", |j| j.as_str().map(str::to_string));
        let integer = |name| field(v, name, "a non-negative integer", Json::as_u64);
        let req = TuneRequest {
            kernel: string("kernel")?,
            src: string("src")?,
            machine: string("machine")?.unwrap_or_default(),
            context: string("context")?.unwrap_or_default(),
            n: integer("n")?.map(|n| n as usize),
            seed: integer("seed")?,
            full: field(v, "full", "a boolean", Json::as_bool)?.unwrap_or(false),
            strategy: string("strategy")?,
            budget: string("budget")?,
        };
        if req.kernel.is_none() && req.src.is_none() {
            return Err("tune needs a kernel name or a src".to_string());
        }
        Ok(req)
    }

    /// What this request tunes and how, as a [`TuneConfig`]: machine,
    /// context, problem size, workload seed, candidate sets, strategy and
    /// budget. This is the one place an omitted field gets its value —
    /// `ifko tune` and the daemon's `tune` command both start from it, so
    /// a request means the same search of the same workload wherever it
    /// runs: machine `p4e`, context `oc`, N 40 000 out of cache / 1024 in
    /// L2, the seed of [`TuneConfig::paper`], the quick candidate sets
    /// unless `full`, the line search, no budget. A given `n` must lie in
    /// `1..=`[`ifko::config::MAX_N`]: it arrives off the wire or the
    /// command line and sizes the operand allocations.
    pub fn config(&self) -> Result<TuneConfig, String> {
        let set = |field: &&String| !field.is_empty();
        let machine = Some(&self.machine)
            .filter(set)
            .map_or("p4e", String::as_str);
        let machine = MachineConfig::by_name(machine)
            .ok_or_else(|| format!("unknown machine `{machine}` (p4e | opteron)"))?;
        let context = Some(&self.context).filter(set).map_or("oc", String::as_str);
        let context = Context::from_label(context)
            .ok_or_else(|| format!("unknown context `{context}` (oc | ic)"))?;
        let n = match self.n {
            Some(n) => checked_n(n as u64).map_err(|e| e.to_string())?,
            None => match context {
                Context::OutOfCache => 40_000,
                Context::InL2 => 1024,
            },
        };
        let search = if self.full {
            SearchOptions::default()
        } else {
            SearchOptions::quick()
        };
        let strategy = StrategySpec::parse(self.strategy.as_deref().unwrap_or("line"))?;
        let mut cfg = TuneConfig::paper()
            .machine(machine)
            .context(context)
            .n(n)
            .search(search)
            .strategy(strategy);
        if let Some(seed) = self.seed {
            cfg = cfg.seed(seed);
        }
        if let Some(budget) = &self.budget {
            cfg = cfg.budget(Budget::parse(budget).map_err(|e| format!("budget: {e}"))?);
        }
        Ok(cfg)
    }
}

impl Client {
    /// Connect to a daemon socket.
    pub fn connect(socket: impl AsRef<Path>) -> std::io::Result<Client> {
        Ok(Client {
            stream: UnixStream::connect(socket)?,
        })
    }

    /// Send one raw JSON request and return the parsed response.
    /// Protocol-level failures (`"ok":false`) become `Err` with the
    /// daemon's error message.
    pub fn request(&mut self, payload: &str) -> Result<Json, String> {
        write_frame(&mut self.stream, payload).map_err(|e| format!("send: {e}"))?;
        // A warm reply comes back within tens of µs: poll for it.
        let reply = read_frame(&mut Polling(&self.stream))
            .map_err(|e| format!("recv: {e}"))?
            .ok_or("daemon closed the connection")?;
        let v = parse_json(&reply).ok_or_else(|| format!("unparseable response: {reply}"))?;
        if v.get("ok").and_then(|j| j.as_bool()) == Some(true) {
            Ok(v)
        } else {
            Err(v
                .get("error")
                .and_then(|j| j.as_str())
                .unwrap_or("daemon error")
                .to_string())
        }
    }

    pub fn ping(&mut self) -> Result<(), String> {
        self.request("{\"cmd\":\"ping\"}").map(|_| ())
    }

    pub fn shutdown(&mut self) -> Result<(), String> {
        self.request("{\"cmd\":\"shutdown\"}").map(|_| ())
    }

    /// Prometheus text of the daemon's metrics registry.
    pub fn metrics(&mut self) -> Result<String, String> {
        let v = self.request("{\"cmd\":\"metrics\"}")?;
        Ok(v.get("text")
            .and_then(|j| j.as_str())
            .unwrap_or_default()
            .to_string())
    }

    /// Database statistics (JSON object under `stats`).
    pub fn stats(&mut self) -> Result<Json, String> {
        let v = self.request("{\"cmd\":\"stats\"}")?;
        v.get("stats").cloned().ok_or("missing stats".to_string())
    }

    /// Compact the journal now; returns post-compaction statistics.
    pub fn compact(&mut self) -> Result<Json, String> {
        let v = self.request("{\"cmd\":\"compact\"}")?;
        v.get("stats").cloned().ok_or("missing stats".to_string())
    }

    /// Pack the daemon's database into artifact text.
    pub fn pack(&mut self) -> Result<String, String> {
        let v = self.request("{\"cmd\":\"pack\"}")?;
        Ok(v.get("artifact")
            .and_then(|j| j.as_str())
            .unwrap_or_default()
            .to_string())
    }

    /// Exact-key (optionally nearest-`sfv`) warm-start lookup. Returns
    /// the full response object (`found`, `nearest`, `record`). `prec`
    /// is required for kernels outside the built-in suite; for suite
    /// kernels the daemon derives it from the kernel table.
    pub fn query(
        &mut self,
        kernel: &str,
        machine: &str,
        context: &str,
        prec: Option<&str>,
        sfv: Option<&[f64]>,
    ) -> Result<Json, String> {
        let mut s = format!(
            "{{\"cmd\":\"query\",\"kernel\":\"{}\",\"machine\":\"{}\",\"context\":\"{}\"",
            esc(kernel),
            esc(machine),
            esc(context)
        );
        if let Some(p) = prec {
            s.push_str(&format!(",\"prec\":\"{}\"", esc(p)));
        }
        if let Some(sfv) = sfv {
            let vals: Vec<String> = sfv.iter().map(|v| format!("{v:.6}")).collect();
            s.push_str(&format!(",\"sfv\":[{}]", vals.join(",")));
        }
        s.push('}');
        self.request(&s)
    }

    /// Run (or coalesce into) a tune session; returns the full response
    /// object.
    pub fn tune(&mut self, req: &TuneRequest) -> Result<Json, String> {
        self.request(&req.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tune_request_round_trips_through_its_wire_form() {
        let blas = TuneRequest {
            kernel: Some("ddot".into()),
            machine: "opteron".into(),
            context: "ic".into(),
            n: Some(1024),
            seed: Some(7),
            full: true,
            strategy: Some("anneal".into()),
            budget: Some("500ms".into()),
            ..TuneRequest::default()
        };
        let src = TuneRequest {
            src: Some("ROUTINE \"k\";\n\tx += 1.0;\n".into()),
            ..TuneRequest::default()
        };
        // A seed uses all 64 bits; neither of these fits an f64.
        let wide = |seed| TuneRequest {
            seed: Some(seed),
            ..blas.clone()
        };
        for req in [wide((1 << 53) + 1), wide(u64::MAX - 1), blas, src] {
            let wire = parse_json(&req.to_json()).expect("to_json writes JSON");
            assert_eq!(TuneRequest::from_json(&wire), Ok(req));
        }
        let empty = parse_json("{\"cmd\":\"tune\"}").unwrap();
        assert!(TuneRequest::from_json(&empty).is_err());
    }
}
