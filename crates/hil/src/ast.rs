//! Abstract syntax tree of the HIL.

/// Floating-point precision. Mirrors `ifko_xsim::Prec` but kept separate so
//  the front end has no simulator dependency.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Prec {
    S,
    D,
}

impl Prec {
    pub fn bytes(self) -> u64 {
        match self {
            Prec::S => 4,
            Prec::D => 8,
        }
    }
    pub fn blas_char(self) -> char {
        match self {
            Prec::S => 's',
            Prec::D => 'd',
        }
    }
}

/// How a pointer parameter is used; writing through an `In` pointer is a
/// semantic error (Fortran-77-style rules, per the paper).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Intent {
    In,
    Out,
    InOut,
}

/// Declared type of a routine parameter.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ParamType {
    /// Integer (vector length, stride, ...).
    Int,
    /// Floating-point scalar (e.g. `alpha`).
    Scalar(Prec),
    /// Pointer to a dense vector of the given precision.
    Ptr { prec: Prec, intent: Intent },
}

/// 1-based source line of a declaration or statement, carried for
/// diagnostics only. Equality is always true so that pretty-print →
/// re-parse round trips (which cannot preserve exact line numbers)
/// still compare equal at the AST level.
#[derive(Clone, Copy, Debug, Default)]
pub struct Line(pub u32);

impl PartialEq for Line {
    fn eq(&self, _other: &Line) -> bool {
        true
    }
}
impl Eq for Line {}

/// A routine parameter.
#[derive(Clone, PartialEq, Debug)]
pub struct Param {
    pub name: String,
    pub ty: ParamType,
    /// Source line of the declaration (0 = unknown).
    pub line: Line,
}

/// A declared local scalar. An `out: true` scalar carries the routine's
/// result (like `dot` or `imax`).
#[derive(Clone, PartialEq, Debug)]
pub struct ScalarDecl {
    pub name: String,
    /// `None` = integer scalar, `Some(p)` = floating-point of precision `p`.
    pub prec: Option<Prec>,
    pub out: bool,
    /// Source line of the declaration (0 = unknown).
    pub line: Line,
}

/// Assignment operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AssignOp {
    /// `=`
    Set,
    /// `+=`
    Add,
    /// `-=`
    Sub,
    /// `*=`
    Mul,
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnOp {
    Neg,
    /// `ABS x` (the paper's amax loop).
    Abs,
    /// `SQRT x` (nrm2-style kernels).
    Sqrt,
}

/// Binary arithmetic.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// Comparison operators for `IF (..) GOTO`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    Gt,
    Ge,
    Lt,
    Le,
    Eq,
    Ne,
}

/// Expressions.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// Floating constant (`0.0`).
    FConst(f64),
    /// Integer constant.
    IConst(i64),
    /// Scalar variable or parameter by name.
    Var(String),
    /// Array element load `X[k]` (constant element offset from the moving
    /// pointer — the HIL idiom; pointers advance with `X += 1`).
    Load {
        ptr: String,
        offset: i64,
    },
    Unary(UnOp, Box<Expr>),
    Bin(BinOp, Box<Expr>, Box<Expr>),
}

/// Assignable locations.
#[derive(Clone, PartialEq, Debug)]
pub enum LValue {
    Scalar(String),
    ArrayElem { ptr: String, offset: i64 },
}

/// Statements.
#[derive(Clone, PartialEq, Debug)]
pub enum Stmt {
    /// `lhs op rhs;`
    Assign {
        lhs: LValue,
        op: AssignOp,
        rhs: Expr,
    },
    /// `X += k;` — advance a pointer by `k` elements.
    PtrBump { ptr: String, elems: i64 },
    /// `LOOP var = start, end [, -1] ... LOOP_END`.
    Loop(Loop),
    /// `IF (a cmp b) GOTO label;`
    IfGoto {
        lhs: Expr,
        cmp: CmpOp,
        rhs: Expr,
        label: String,
    },
    /// `GOTO label;`
    Goto(String),
    /// `label:`
    Label(String),
    /// `RETURN expr;`
    Return(Expr),
}

/// A counted loop. `down: false` means `var = start .. end` stepping +1;
/// `down: true` means `var = start .. end` stepping -1 (the paper's
/// `LOOP i = N, 0, -1`).
#[derive(Clone, PartialEq, Debug)]
pub struct Loop {
    pub var: String,
    pub start: Expr,
    pub end: Expr,
    pub down: bool,
    pub body: Vec<Stmt>,
    /// Set by `!! TUNE LOOP` mark-up: this is the loop the empirical
    /// search tunes.
    pub tuned: bool,
    /// Source line of the `LOOP` header (0 = unknown).
    pub line: Line,
}

/// Mark-up collected at routine level.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Markup {
    /// Arrays the user excluded from prefetching (`!! NOPREFETCH X`).
    pub no_prefetch: Vec<String>,
    /// Pairs of arrays allowed to alias (`!! ALIAS X Y`).
    pub alias_ok: Vec<(String, String)>,
}

/// A full routine.
#[derive(Clone, PartialEq, Debug)]
pub struct Routine {
    pub name: String,
    pub params: Vec<Param>,
    pub scalars: Vec<ScalarDecl>,
    pub body: Vec<Stmt>,
    pub markup: Markup,
}

impl Routine {
    /// Find a parameter by name.
    pub fn param(&self, name: &str) -> Option<&Param> {
        self.params.iter().find(|p| p.name == name)
    }
    /// Find a scalar declaration by name.
    pub fn scalar(&self, name: &str) -> Option<&ScalarDecl> {
        self.scalars.iter().find(|s| s.name == name)
    }
    /// The tuned loop, if one is marked (searched recursively).
    pub fn tuned_loop(&self) -> Option<&Loop> {
        fn find(stmts: &[Stmt]) -> Option<&Loop> {
            for s in stmts {
                if let Stmt::Loop(l) = s {
                    if l.tuned {
                        return Some(l);
                    }
                    if let Some(inner) = find(&l.body) {
                        return Some(inner);
                    }
                }
            }
            None
        }
        find(&self.body)
    }
}

pub use BinOp as BinaryOp;

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_routine() -> Routine {
        Routine {
            name: "t".into(),
            params: vec![
                Param {
                    name: "X".into(),
                    ty: ParamType::Ptr {
                        prec: Prec::D,
                        intent: Intent::In,
                    },
                    line: Line::default(),
                },
                Param {
                    name: "N".into(),
                    ty: ParamType::Int,
                    line: Line::default(),
                },
            ],
            scalars: vec![ScalarDecl {
                name: "s".into(),
                prec: Some(Prec::D),
                out: true,
                line: Line::default(),
            }],
            body: vec![Stmt::Loop(Loop {
                var: "i".into(),
                start: Expr::IConst(0),
                end: Expr::Var("N".into()),
                down: false,
                body: vec![],
                tuned: true,
                line: Line::default(),
            })],
            markup: Markup::default(),
        }
    }

    #[test]
    fn lookup_helpers() {
        let r = mini_routine();
        assert!(r.param("X").is_some());
        assert!(r.param("Z").is_none());
        assert!(r.scalar("s").unwrap().out);
    }

    #[test]
    fn tuned_loop_found() {
        let r = mini_routine();
        assert!(r.tuned_loop().is_some());
        let mut r2 = r;
        if let Stmt::Loop(l) = &mut r2.body[0] {
            l.tuned = false;
        }
        assert!(r2.tuned_loop().is_none());
    }

    #[test]
    fn prec_bytes() {
        assert_eq!(Prec::S.bytes(), 4);
        assert_eq!(Prec::D.bytes(), 8);
    }
}
