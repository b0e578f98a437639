//! Shared structured diagnostics.
//!
//! The verifier, `ifko lint`, and the existing pipeline errors all funnel
//! through one `Diagnostic` shape so text and JSON output are uniform:
//! a stable code (`V1xx` verifier, `F001`/`L001`/`X001`/`R001`/`C001` for
//! the pipeline stages), a severity, the pipeline stage, a message, and an
//! optional location (HIL source line and/or linear-IR op index).

/// How bad a diagnostic is. `Error` diagnostics fail `ifko lint`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    Note,
    Warning,
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// Where a diagnostic points. Either half may be absent: frontend
/// diagnostics have a line but no op; verifier diagnostics usually have an
/// op index and sometimes a line recovered through `KernelIr::vreg_lines`.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct Loc {
    /// 1-based HIL source line (0 = unknown).
    pub line: u32,
    /// Index into the linear op stream (`usize::MAX` = unknown).
    pub op: usize,
}

impl Loc {
    pub fn none() -> Loc {
        Loc {
            line: 0,
            op: usize::MAX,
        }
    }
    pub fn line(line: u32) -> Loc {
        Loc {
            line,
            op: usize::MAX,
        }
    }
    pub fn op(op: usize) -> Loc {
        Loc { line: 0, op }
    }
}

/// One structured diagnostic.
#[derive(Clone, PartialEq, Debug)]
pub struct Diagnostic {
    /// Stable machine-readable code, e.g. `V102`.
    pub code: &'static str,
    pub severity: Severity,
    /// Pipeline stage that produced it: `frontend`, `lower`, `analysis`,
    /// `xform`, `opt`, `regalloc`, `codegen`.
    pub stage: &'static str,
    pub msg: String,
    pub loc: Loc,
}

impl Diagnostic {
    pub fn error(code: &'static str, stage: &'static str, msg: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Error,
            stage,
            msg: msg.into(),
            loc: Loc::none(),
        }
    }
    pub fn warning(code: &'static str, stage: &'static str, msg: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(code, stage, msg)
        }
    }
    pub fn note(code: &'static str, stage: &'static str, msg: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Note,
            ..Diagnostic::error(code, stage, msg)
        }
    }
    pub fn at_op(mut self, op: usize) -> Diagnostic {
        self.loc.op = op;
        self
    }
    pub fn at_line(mut self, line: u32) -> Diagnostic {
        self.loc.line = line;
        self
    }

    /// `error[V102] xform: branch to undefined label L9 (op 17, line 4)`.
    pub fn render_text(&self) -> String {
        let mut s = format!(
            "{}[{}] {}: {}",
            self.severity.as_str(),
            self.code,
            self.stage,
            self.msg
        );
        let mut ctx = Vec::new();
        if self.loc.op != usize::MAX {
            ctx.push(format!("op {}", self.loc.op));
        }
        if self.loc.line != 0 {
            ctx.push(format!("line {}", self.loc.line));
        }
        if !ctx.is_empty() {
            s.push_str(&format!(" ({})", ctx.join(", ")));
        }
        s
    }

    /// Hand-rolled JSON object (the workspace has no serde).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"code\":\"{}\",\"severity\":\"{}\",\"stage\":\"{}\",\"msg\":\"{}\"",
            self.code,
            self.severity.as_str(),
            self.stage,
            json_escape(&self.msg)
        );
        if self.loc.line != 0 {
            s.push_str(&format!(",\"line\":{}", self.loc.line));
        }
        if self.loc.op != usize::MAX {
            s.push_str(&format!(",\"op\":{}", self.loc.op));
        }
        s.push('}');
        s
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render_text())
    }
}

/// Escape `s` for use inside a JSON string literal: backslash, quote,
/// and every control character (a raw newline inside a JSONL record
/// would split it into two malformed lines). The workspace's one JSON
/// string escaper; `ifko::json::esc` re-exports it.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_and_json_render() {
        let d = Diagnostic::error("V102", "xform", "branch to undefined label L9")
            .at_op(17)
            .at_line(4);
        assert_eq!(
            d.render_text(),
            "error[V102] xform: branch to undefined label L9 (op 17, line 4)"
        );
        assert_eq!(
            d.to_json(),
            "{\"code\":\"V102\",\"severity\":\"error\",\"stage\":\"xform\",\
             \"msg\":\"branch to undefined label L9\",\"line\":4,\"op\":17}"
        );
    }

    #[test]
    fn json_escaping() {
        let d = Diagnostic::warning("V000", "opt", "quote \" and \\ and\nnewline");
        assert!(d.to_json().contains("quote \\\" and \\\\ and\\nnewline"));
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Note);
    }
}
