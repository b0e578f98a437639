//! Property-based front-end tests: generated routines survive a
//! pretty-print → re-parse round trip, and the lexer and parser never
//! panic.
//!
//! Uses the in-repo `Rng64`, so it runs ungated in the tier-1 suite.

use ifko_hil::ast::*;
use ifko_hil::{parse_routine, pretty};
use ifko_xsim::Rng64;

const CASES: usize = 128;

/// `[a-z][a-z0-9_]{0,6}`, avoiding the fixed names used elsewhere in the
/// generated routine (pointers, N, and the loop variable `i`).
fn ident(rng: &mut Rng64) -> String {
    const HEAD: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
    loop {
        let mut s = String::from(HEAD[rng.range_usize(HEAD.len())] as char);
        for _ in 0..rng.range_usize(7) {
            s.push(TAIL[rng.range_usize(TAIL.len())] as char);
        }
        if !matches!(s.as_str(), "i" | "px" | "py" | "nn" | "gen") {
            return s;
        }
    }
}

/// A floating-point expression over `vars` and loads through `ptrs`, at
/// most `depth` operators deep.
fn fexpr(rng: &mut Rng64, vars: &[String], ptrs: &[&str], depth: u32) -> Expr {
    if depth == 0 || rng.gen_bool(0.4) {
        return match rng.range_usize(3) {
            0 => Expr::FConst(rng.range_usize(100) as f64 * 0.5),
            1 => Expr::Var(vars[rng.range_usize(vars.len())].clone()),
            _ => Expr::Load {
                ptr: ptrs[rng.range_usize(ptrs.len())].to_string(),
                offset: rng.range_usize(4) as i64,
            },
        };
    }
    let sub = |rng: &mut Rng64| Box::new(fexpr(rng, vars, ptrs, depth - 1));
    match rng.range_usize(3) {
        0 => Expr::Bin(BinaryOp::Add, sub(rng), sub(rng)),
        1 => Expr::Bin(BinaryOp::Mul, sub(rng), sub(rng)),
        _ => Expr::Unary(UnOp::Abs, sub(rng)),
    }
}

/// A well-formed routine: two pointers, N, the given FP scalars, and a
/// tuned loop whose body runs `stmts`, stores the first scalar through the
/// OUT pointer and bumps both pointers.
fn routine_of(scalars: &[String], stmts: Vec<Stmt>) -> Routine {
    let ptr = |name: &str, intent| Param {
        name: name.into(),
        ty: ParamType::Ptr {
            prec: Prec::D,
            intent,
        },
        line: Line::default(),
    };
    let mut body = stmts;
    body.push(Stmt::Assign {
        lhs: LValue::ArrayElem {
            ptr: "py".into(),
            offset: 0,
        },
        op: AssignOp::Set,
        rhs: Expr::Var(scalars[0].clone()),
    });
    for p in ["px", "py"] {
        body.push(Stmt::PtrBump {
            ptr: p.into(),
            elems: 1,
        });
    }
    Routine {
        name: "gen".into(),
        params: vec![
            ptr("px", Intent::In),
            ptr("py", Intent::Out),
            Param {
                name: "nn".into(),
                ty: ParamType::Int,
                line: Line::default(),
            },
        ],
        scalars: scalars
            .iter()
            .map(|s| ScalarDecl {
                name: s.clone(),
                prec: Some(Prec::D),
                out: false,
                line: Line::default(),
            })
            .collect(),
        body: vec![Stmt::Loop(Loop {
            var: "i".into(),
            start: Expr::IConst(0),
            end: Expr::Var("nn".into()),
            down: false,
            body,
            tuned: true,
            line: Line::default(),
        })],
        markup: Markup::default(),
    }
}

/// A random routine: 2–4 distinct scalars (sorted), 1–5 assignments of
/// random expressions to them.
fn routine(rng: &mut Rng64) -> Routine {
    let mut scalars: Vec<String> = Vec::new();
    let want = 2 + rng.range_usize(3);
    while scalars.len() < want {
        let s = ident(rng);
        if !scalars.contains(&s) {
            scalars.push(s);
        }
    }
    scalars.sort();
    let stmts = (0..1 + rng.range_usize(5))
        .map(|_| Stmt::Assign {
            lhs: LValue::Scalar(scalars[rng.range_usize(scalars.len())].clone()),
            op: [AssignOp::Set, AssignOp::Add, AssignOp::Mul][rng.range_usize(3)],
            rhs: fexpr(rng, &scalars, &["px", "py"], 3),
        })
        .collect();
    routine_of(&scalars, stmts)
}

/// print(parse(print(r))) is a fixed point and preserves the AST.
fn assert_roundtrip(r: &Routine) {
    let printed = pretty::print_routine(r);
    let reparsed =
        parse_routine(&printed).unwrap_or_else(|e| panic!("re-parse failed: {e}\n{printed}"));
    assert_eq!(r, &reparsed, "AST moved through:\n{printed}");
    assert_eq!(printed, pretty::print_routine(&reparsed));
}

#[test]
fn pretty_parse_roundtrip() {
    let mut rng = Rng64::seed_from_u64(0x41f_0001);
    for _ in 0..CASES {
        assert_roundtrip(&routine(&mut rng));
    }
}

/// Generated routines pass semantic analysis.
#[test]
fn generated_routines_analyze() {
    let mut rng = Rng64::seed_from_u64(0x41f_0002);
    for _ in 0..CASES {
        let r = routine(&mut rng);
        let info = ifko_hil::analyze(&r).unwrap_or_else(|e| panic!("{e}\n{r:?}"));
        assert_eq!(info.prec, Some(Prec::D));
        assert!(info.has_tuned_loop);
    }
}

/// The committed `proptest` regression: a scalar named like the loop
/// variable (`i`), read inside the loop. The generator has avoided the
/// name ever since; the round trip itself must still hold for it.
#[test]
fn regression_scalar_named_like_the_loop_variable() {
    let scalars = ["fq95r_f".to_string(), "i".to_string()];
    let stmts = vec![Stmt::Assign {
        lhs: LValue::Scalar("fq95r_f".into()),
        op: AssignOp::Set,
        rhs: Expr::Bin(
            BinaryOp::Mul,
            Box::new(Expr::FConst(0.5)),
            Box::new(Expr::Var("i".into())),
        ),
    }];
    assert_roundtrip(&routine_of(&scalars, stmts));
}

/// A string of `len` characters drawn from `alphabet`.
fn text(rng: &mut Rng64, alphabet: &[char], len: usize) -> String {
    (0..len)
        .map(|_| alphabet[rng.range_usize(alphabet.len())])
        .collect()
}

/// The lexer never panics on arbitrary input (ASCII, controls, and
/// multi-byte characters that put a `!`, `=` or `:` look-ahead next to a
/// non-boundary byte).
#[test]
fn lexer_total() {
    let mut rng = Rng64::seed_from_u64(0x41f_0003);
    let alphabet: Vec<char> = (0u8..128)
        .map(char::from)
        .chain("éß→𝛼\u{feff}".chars())
        .collect();
    for _ in 0..CASES {
        let len = rng.range_usize(200);
        let _ = ifko_hil::lex::lex(&text(&mut rng, &alphabet, len));
    }
}

/// The parser never panics on arbitrary token-ish input.
#[test]
fn parser_total() {
    let mut rng = Rng64::seed_from_u64(0x41f_0004);
    let mut alphabet: Vec<char> = " =+*;:,()[]\n<>!-".chars().collect();
    alphabet.extend(('A'..='Z').chain('a'..='z').chain('0'..='9'));
    // Raw characters rarely get past `ROUTINE`; splice in whole keywords
    // so the statement and expression parsers see garbage too.
    let words: Vec<&str> = "ROUTINE PARAMS SCALARS ROUT_BEGIN ROUT_END LOOP LOOP_BODY LOOP_END \
                            IF GOTO RETURN DOUBLE DOUBLE_PTR INT ABS :: += !!"
        .split_whitespace()
        .collect();
    for _ in 0..CASES {
        let target = rng.range_usize(200);
        let mut s = String::new();
        while s.len() < target {
            if rng.gen_bool(0.3) {
                s.push_str(words[rng.range_usize(words.len())]);
                s.push(' ');
            } else {
                let len = 1 + rng.range_usize(8);
                s.push_str(&text(&mut rng, &alphabet, len));
            }
        }
        let _ = parse_routine(&s);
    }
}
