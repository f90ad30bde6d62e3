//! Recursive-descent parser for MiniACC.
//!
//! Grammar sketch (see crate docs for examples):
//!
//! ```text
//! program   := function*
//! function  := "void" IDENT "(" params ")" block
//! param     := ["const"] type IDENT dims?        // dims => array param
//! dims      := ("[" [expr ":"] expr "]")+        // optional Fortran lb
//! stmt      := decl | assign | for | if | block | pragma-region
//! pragma    := kernels/parallel (+ clauses) applied to next block/loop
//!            | loop-directive applied to next for
//! ```

use crate::ast::*;
use crate::directive::*;
use crate::lexer::{Tok, Token};
use crate::span::Span;
use std::fmt;

/// Syntax errors.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human-readable message.
    pub message: String,
    /// Where the error occurred.
    pub span: Span,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at bytes {}..{}", self.message, self.span.start, self.span.end)
    }
}

impl std::error::Error for ParseError {}

type PResult<T> = Result<T, ParseError>;

/// Parse a token stream (from [`crate::lexer::lex`]) into a [`Program`].
pub fn parse(tokens: &[Token], _src: &str) -> PResult<Program> {
    let mut p = Parser { toks: tokens, pos: 0 };
    let mut functions = Vec::new();
    while !p.at_end() {
        functions.push(p.function()?);
    }
    Ok(Program { functions })
}

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn peek(&self) -> Option<&'a Token> {
        self.toks.get(self.pos)
    }

    fn cur_span(&self) -> Span {
        self.peek()
            .map(|t| t.span)
            .unwrap_or_else(|| self.toks.last().map(|t| t.span).unwrap_or_default())
    }

    fn bump(&mut self) -> Option<&'a Token> {
        let t = self.toks.get(self.pos);
        self.pos += 1;
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> PResult<T> {
        Err(ParseError { message: msg.into(), span: self.cur_span() })
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Some(Token { tok: Tok::Punct(q), .. }) if *q == p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> PResult<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            self.err(format!("expected `{p}`, found {}", self.describe_cur()))
        }
    }

    fn describe_cur(&self) -> String {
        match self.peek() {
            None => "end of input".into(),
            Some(Token { tok: Tok::Ident(s), .. }) => format!("`{s}`"),
            Some(Token { tok: Tok::Int(v), .. }) => format!("`{v}`"),
            Some(Token { tok: Tok::Float(v), .. }) => format!("`{v}`"),
            Some(Token { tok: Tok::Punct(p), .. }) => format!("`{p}`"),
            Some(Token { tok: Tok::PragmaAcc(_), .. }) => "`#pragma acc`".into(),
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Token { tok: Tok::Ident(s), .. }) if s.as_str() == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> PResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected `{kw}`, found {}", self.describe_cur()))
        }
    }

    fn expect_ident(&mut self) -> PResult<Ident> {
        match self.bump() {
            Some(Token { tok: Tok::Ident(s), .. }) => Ok(s.clone()),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                self.err(format!("expected identifier, found {}", self.describe_cur()))
            }
        }
    }

    fn peek_scalar_ty(&self) -> Option<ScalarTy> {
        match self.peek() {
            Some(Token { tok: Tok::Ident(s), .. }) => match s.as_str() {
                "int" => Some(ScalarTy::I32),
                "long" => Some(ScalarTy::I64),
                "float" => Some(ScalarTy::F32),
                "double" => Some(ScalarTy::F64),
                _ => None,
            },
            _ => None,
        }
    }

    // ---------------------------------------------------------- functions

    fn function(&mut self) -> PResult<Function> {
        let start = self.cur_span();
        self.expect_kw("void")?;
        let name = self.expect_ident()?;
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.eat_punct(")") {
            loop {
                params.push(self.param()?);
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        let sig_end = self.cur_span();
        self.expect_punct("{")?;
        let body = self.stmt_list_until_rbrace()?;
        Ok(Function { name, params, body, span: start.merge(sig_end) })
    }

    fn param(&mut self) -> PResult<Param> {
        let is_const = self.eat_kw("const");
        let ty = match self.peek_scalar_ty() {
            Some(t) => {
                self.pos += 1;
                t
            }
            None => return self.err(format!("expected type, found {}", self.describe_cur())),
        };
        let name = self.expect_ident()?;
        if matches!(self.peek(), Some(Token { tok: Tok::Punct("["), .. })) {
            let mut dims = Vec::new();
            while self.eat_punct("[") {
                dims.push(self.dim()?);
                self.expect_punct("]")?;
            }
            Ok(Param::Array { name, ty: ArrayTy { elem: ty, dims }, is_const })
        } else {
            if is_const {
                return self.err("`const` is only meaningful on array parameters");
            }
            Ok(Param::Scalar { name, ty })
        }
    }

    fn dim(&mut self) -> PResult<Dim> {
        let first = self.expr()?;
        if self.eat_punct(":") {
            let len = self.expr()?;
            Ok(Dim { lower: Some(first), extent: extent_of(len) })
        } else {
            Ok(Dim { lower: None, extent: extent_of(first) })
        }
    }

    // --------------------------------------------------------- statements

    fn stmt_list_until_rbrace(&mut self) -> PResult<Vec<Stmt>> {
        let mut out = Vec::new();
        while !self.eat_punct("}") {
            if self.at_end() {
                return self.err("unexpected end of input, expected `}`");
            }
            out.push(self.stmt()?);
        }
        Ok(out)
    }

    fn stmt(&mut self) -> PResult<Stmt> {
        // Directive?
        if let Some(Token { tok: Tok::PragmaAcc(body), span }) = self.peek() {
            self.pos += 1;
            return self.directive_stmt(body, *span);
        }

        // Declaration?
        if let Some(ty) = self.peek_scalar_ty() {
            self.pos += 1;
            let name = self.expect_ident()?;
            let init = if self.eat_punct("=") { Some(self.expr()?) } else { None };
            self.expect_punct(";")?;
            return Ok(Stmt::DeclScalar { name, ty, init });
        }

        match self.peek() {
            Some(Token { tok: Tok::Punct("{"), .. }) => {
                self.pos += 1;
                Ok(Stmt::Block(self.stmt_list_until_rbrace()?))
            }
            Some(Token { tok: Tok::Ident(s), .. }) if s.as_str() == "for" => {
                self.for_loop(None).map(|f| Stmt::For(Box::new(f)))
            }
            Some(Token { tok: Tok::Ident(s), .. }) if s.as_str() == "if" => self.if_stmt(),
            _ => self.assign_stmt(),
        }
    }

    fn if_stmt(&mut self) -> PResult<Stmt> {
        self.expect_kw("if")?;
        self.expect_punct("(")?;
        let cond = self.expr()?;
        self.expect_punct(")")?;
        let then_body = self.stmt_or_block()?;
        let else_body = if self.eat_kw("else") { self.stmt_or_block()? } else { Vec::new() };
        Ok(Stmt::If { cond, then_body, else_body })
    }

    fn stmt_or_block(&mut self) -> PResult<Vec<Stmt>> {
        if self.eat_punct("{") {
            self.stmt_list_until_rbrace()
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    fn assign_stmt(&mut self) -> PResult<Stmt> {
        let lhs = self.lvalue()?;
        let op = if self.eat_punct("=") {
            AssignOp::Assign
        } else if self.eat_punct("+=") {
            AssignOp::AddAssign
        } else if self.eat_punct("-=") {
            AssignOp::SubAssign
        } else if self.eat_punct("*=") {
            AssignOp::MulAssign
        } else if self.eat_punct("/=") {
            AssignOp::DivAssign
        } else {
            return self.err(format!("expected assignment operator, found {}", self.describe_cur()));
        };
        let rhs = self.expr()?;
        self.expect_punct(";")?;
        Ok(Stmt::Assign { lhs, op, rhs })
    }

    fn lvalue(&mut self) -> PResult<LValue> {
        let name = self.expect_ident()?;
        if matches!(self.peek(), Some(Token { tok: Tok::Punct("["), .. })) {
            let mut indices = Vec::new();
            while self.eat_punct("[") {
                indices.push(self.expr()?);
                self.expect_punct("]")?;
            }
            Ok(LValue::ArrayRef(ArrayRef { array: name, indices }))
        } else {
            Ok(LValue::Var(name))
        }
    }

    fn for_loop(&mut self, directive: Option<LoopDirective>) -> PResult<ForLoop> {
        let start = self.cur_span();
        self.expect_kw("for")?;
        self.expect_punct("(")?;
        let declares_var = self.eat_kw("int");
        let var = self.expect_ident()?;
        self.expect_punct("=")?;
        let lo = self.expr()?;
        self.expect_punct(";")?;
        let cond_var = self.expect_ident()?;
        if cond_var != var {
            return self.err(format!(
                "loop condition must test the induction variable `{var}`, found `{cond_var}`"
            ));
        }
        let cmp = if self.eat_punct("<=") {
            LoopCmp::Le
        } else if self.eat_punct("<") {
            LoopCmp::Lt
        } else if self.eat_punct(">=") {
            LoopCmp::Ge
        } else if self.eat_punct(">") {
            LoopCmp::Gt
        } else {
            return self.err("expected loop comparison (<, <=, >, >=)");
        };
        let bound = self.expr()?;
        self.expect_punct(";")?;
        let step = self.loop_step(&var)?;
        self.expect_punct(")")?;
        if cmp.is_downward() != (step < 0) {
            return self.err("loop comparison direction must match the step sign");
        }
        let body = self.stmt_or_block()?;
        let end = self.cur_span();
        Ok(ForLoop {
            var,
            declares_var,
            lo,
            cmp,
            bound,
            step,
            directive,
            body,
            span: start.merge(end),
        })
    }

    fn loop_step(&mut self, var: &Ident) -> PResult<i64> {
        // i++ | i-- | ++i | --i | i += K | i -= K
        if self.eat_punct("++") {
            let v = self.expect_ident()?;
            if &v != var {
                return self.err("loop step must update the induction variable");
            }
            return Ok(1);
        }
        if self.eat_punct("--") {
            let v = self.expect_ident()?;
            if &v != var {
                return self.err("loop step must update the induction variable");
            }
            return Ok(-1);
        }
        let v = self.expect_ident()?;
        if &v != var {
            return self.err("loop step must update the induction variable");
        }
        if self.eat_punct("++") {
            Ok(1)
        } else if self.eat_punct("--") {
            Ok(-1)
        } else if self.eat_punct("+=") {
            match self.expr()?.as_const() {
                Some(k) if k > 0 => Ok(k),
                _ => self.err("loop step must be a positive constant"),
            }
        } else if self.eat_punct("-=") {
            match self.expr()?.as_const() {
                Some(k) if k > 0 => Ok(-k),
                _ => self.err("loop step must be a positive constant"),
            }
        } else {
            self.err("expected `++`, `--`, `+=` or `-=` in loop step")
        }
    }

    // --------------------------------------------------------- directives

    fn directive_stmt(&mut self, body: &[Token], span: Span) -> PResult<Stmt> {
        let mut d = Parser { toks: body, pos: 0 };
        if d.eat_kw("loop") {
            let dir = d.loop_directive()?;
            let f = self.for_loop(Some(dir))?;
            return Ok(Stmt::For(Box::new(f)));
        }
        let construct = if d.eat_kw("kernels") {
            AccConstruct::Kernels
        } else if d.eat_kw("parallel") {
            AccConstruct::Parallel
        } else {
            return d.err(format!(
                "expected `kernels`, `parallel` or `loop` directive, found {}",
                d.describe_cur()
            ));
        };
        // `kernels loop` / `parallel loop` combined form.
        let combined_loop = d.eat_kw("loop");
        let mut clauses = RegionClauses::default();
        let mut loop_dir = LoopDirective::default();
        loop {
            if d.at_end() {
                break;
            }
            if !d.region_clause(&mut clauses)? {
                if combined_loop && d.loop_clause(&mut loop_dir)? {
                    continue;
                }
                return d.err(format!("unknown clause {}", d.describe_cur()));
            }
        }
        let directive = RegionDirective { construct, clauses };
        let body_stmts = if combined_loop {
            let dir = if loop_dir == LoopDirective::default() {
                LoopDirective::gang_vector()
            } else {
                loop_dir
            };
            vec![Stmt::For(Box::new(self.for_loop(Some(dir))?))]
        } else {
            self.stmt_or_block()?
        };
        Ok(Stmt::Region(Box::new(OffloadRegion { directive, body: body_stmts, span })))
    }

    /// Try to parse one region clause; returns false if the cursor does not
    /// start a known region clause.
    fn region_clause(&mut self, clauses: &mut RegionClauses) -> PResult<bool> {
        let kw = match self.peek() {
            Some(Token { tok: Tok::Ident(s), .. }) => s,
            _ => return Ok(false),
        };
        match kw.as_str() {
            "copyin" | "copyout" | "copy" | "create" | "present" => {
                self.pos += 1;
                let dir = match kw.as_str() {
                    "copyin" => DataDir::CopyIn,
                    "copyout" => DataDir::CopyOut,
                    "copy" => DataDir::Copy,
                    "create" => DataDir::Create,
                    _ => DataDir::Present,
                };
                let vars = self.paren_ident_list()?;
                clauses.data.push(DataClause { dir, vars });
                Ok(true)
            }
            "num_gangs" => {
                self.pos += 1;
                self.expect_punct("(")?;
                clauses.num_gangs = Some(self.expr()?);
                self.expect_punct(")")?;
                Ok(true)
            }
            "vector_length" => {
                self.pos += 1;
                self.expect_punct("(")?;
                clauses.vector_length = Some(self.expr()?);
                self.expect_punct(")")?;
                Ok(true)
            }
            "launch_bounds" => {
                self.pos += 1;
                self.expect_punct("(")?;
                let max_threads = self.expr()?;
                let min_blocks =
                    if self.eat_punct(",") { Some(self.expr()?) } else { None };
                self.expect_punct(")")?;
                clauses.launch_bounds = Some(LaunchBoundsClause { max_threads, min_blocks });
                Ok(true)
            }
            "dim" => {
                self.pos += 1;
                self.expect_punct("(")?;
                // One or more groups: ( [bounds] (arrays) , ... )
                loop {
                    clauses.dim_groups.push(self.dim_group()?);
                    if !self.eat_punct(",") {
                        break;
                    }
                }
                self.expect_punct(")")?;
                Ok(true)
            }
            "small" => {
                self.pos += 1;
                clauses.small.extend(self.paren_ident_list()?);
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// `([lb:len, ...]) (a, b, c)` or `(a, b, c)` — one `dim` group.
    fn dim_group(&mut self) -> PResult<DimGroup> {
        self.expect_punct("(")?;
        // Disambiguate bounds vs arrays: bounds contain `:`.
        let save = self.pos;
        let mut depth = 1usize;
        let mut has_colon = false;
        let mut i = self.pos;
        while depth > 0 && i < self.toks.len() {
            match &self.toks[i].tok {
                Tok::Punct("(") => depth += 1,
                Tok::Punct(")") => depth -= 1,
                Tok::Punct(":") if depth == 1 => has_colon = true,
                _ => {}
            }
            i += 1;
        }
        self.pos = save;
        if has_colon {
            let mut bounds = Vec::new();
            loop {
                let lower = self.expr()?;
                self.expect_punct(":")?;
                let len = self.expr()?;
                bounds.push(DimBound { lower, len });
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
            self.expect_punct("(")?;
            let arrays = self.ident_list_until_rparen()?;
            Ok(DimGroup { bounds: Some(bounds), arrays })
        } else {
            let arrays = self.ident_list_until_rparen()?;
            Ok(DimGroup { bounds: None, arrays })
        }
    }

    fn loop_directive(&mut self) -> PResult<LoopDirective> {
        let mut dir = LoopDirective::default();
        while !self.at_end() {
            if !self.loop_clause(&mut dir)? {
                return self.err(format!("unknown loop clause {}", self.describe_cur()));
            }
        }
        Ok(dir)
    }

    fn loop_clause(&mut self, dir: &mut LoopDirective) -> PResult<bool> {
        if self.eat_kw("gang") {
            dir.gang = Some(self.optional_paren_expr()?);
            Ok(true)
        } else if self.eat_kw("vector") {
            dir.vector = Some(self.optional_paren_expr()?);
            Ok(true)
        } else if self.eat_kw("seq") {
            dir.seq = true;
            Ok(true)
        } else if self.eat_kw("independent") {
            dir.independent = true;
            Ok(true)
        } else if self.eat_kw("reduction") {
            self.expect_punct("(")?;
            let op = if self.eat_punct("+") {
                ReduceOp::Add
            } else if self.eat_punct("*") {
                ReduceOp::Mul
            } else if self.eat_kw("min") {
                ReduceOp::Min
            } else if self.eat_kw("max") {
                ReduceOp::Max
            } else {
                return self.err("expected reduction operator (+, *, min, max)");
            };
            self.expect_punct(":")?;
            loop {
                let var = self.expect_ident()?;
                dir.reductions.push(Reduction { op, var });
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn optional_paren_expr(&mut self) -> PResult<Option<Expr>> {
        if self.eat_punct("(") {
            let e = self.expr()?;
            self.expect_punct(")")?;
            Ok(Some(e))
        } else {
            Ok(None)
        }
    }

    fn paren_ident_list(&mut self) -> PResult<Vec<Ident>> {
        self.expect_punct("(")?;
        self.ident_list_until_rparen()
    }

    fn ident_list_until_rparen(&mut self) -> PResult<Vec<Ident>> {
        let mut out = Vec::new();
        loop {
            out.push(self.expect_ident()?);
            if self.eat_punct(")") {
                break;
            }
            self.expect_punct(",")?;
        }
        Ok(out)
    }

    // -------------------------------------------------------- expressions

    fn expr(&mut self) -> PResult<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat_punct("||") {
            let rhs = self.and_expr()?;
            lhs = Expr::bin(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.cmp_expr()?;
        while self.eat_punct("&&") {
            let rhs = self.cmp_expr()?;
            lhs = Expr::bin(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.shift_expr()?;
        loop {
            let op = if self.eat_punct("<=") {
                BinOp::Le
            } else if self.eat_punct("<") {
                BinOp::Lt
            } else if self.eat_punct(">=") {
                BinOp::Ge
            } else if self.eat_punct(">") {
                BinOp::Gt
            } else if self.eat_punct("==") {
                BinOp::Eq
            } else if self.eat_punct("!=") {
                BinOp::Ne
            } else {
                return Ok(lhs);
            };
            let rhs = self.shift_expr()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
    }

    fn shift_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.add_expr()?;
        while self.eat_punct("<<") {
            let rhs = self.add_expr()?;
            lhs = Expr::bin(BinOp::Shl, lhs, rhs);
        }
        Ok(lhs)
    }

    fn add_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = if self.eat_punct("+") {
                BinOp::Add
            } else if self.eat_punct("-") {
                BinOp::Sub
            } else {
                return Ok(lhs);
            };
            let rhs = self.mul_expr()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
    }

    fn mul_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = if self.eat_punct("*") {
                BinOp::Mul
            } else if self.eat_punct("/") {
                BinOp::Div
            } else if self.eat_punct("%") {
                BinOp::Rem
            } else {
                return Ok(lhs);
            };
            let rhs = self.unary_expr()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
    }

    fn unary_expr(&mut self) -> PResult<Expr> {
        if self.eat_punct("-") {
            return Ok(Expr::Unary(UnOp::Neg, Box::new(self.unary_expr()?)));
        }
        if self.eat_punct("!") {
            return Ok(Expr::Unary(UnOp::Not, Box::new(self.unary_expr()?)));
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> PResult<Expr> {
        match self.peek() {
            Some(Token { tok: Tok::Int(v), .. }) => {
                let v = *v;
                self.pos += 1;
                Ok(Expr::IntLit(v))
            }
            Some(Token { tok: Tok::Float(v), .. }) => {
                let v = *v;
                self.pos += 1;
                Ok(Expr::FloatLit(v))
            }
            Some(Token { tok: Tok::Punct("("), .. }) => {
                self.pos += 1;
                // Cast or parenthesized expression?
                if let Some(ty) = self.peek_scalar_ty() {
                    if matches!(self.toks.get(self.pos + 1), Some(Token { tok: Tok::Punct(")"), .. }))
                    {
                        self.pos += 2;
                        let inner = self.unary_expr()?;
                        return Ok(Expr::Cast(ty, Box::new(inner)));
                    }
                }
                let e = self.expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Some(Token { tok: Tok::Ident(name), .. }) => {
                let name = name.clone();
                self.pos += 1;
                // Intrinsic call?
                if matches!(self.peek(), Some(Token { tok: Tok::Punct("("), .. })) {
                    let intr = match Intrinsic::from_name(name.as_str()) {
                        Some(i) => i,
                        None => return self.err(format!("unknown function `{name}`")),
                    };
                    self.pos += 1;
                    let mut args = Vec::new();
                    if !self.eat_punct(")") {
                        loop {
                            args.push(self.expr()?);
                            if self.eat_punct(")") {
                                break;
                            }
                            self.expect_punct(",")?;
                        }
                    }
                    return Ok(Expr::Call(intr, args));
                }
                // Array reference?
                if matches!(self.peek(), Some(Token { tok: Tok::Punct("["), .. })) {
                    let mut indices = Vec::new();
                    while self.eat_punct("[") {
                        indices.push(self.expr()?);
                        self.expect_punct("]")?;
                    }
                    return Ok(Expr::ArrayRef(ArrayRef { array: name, indices }));
                }
                Ok(Expr::Var(name))
            }
            _ => self.err(format!("expected expression, found {}", self.describe_cur())),
        }
    }
}

fn extent_of(e: Expr) -> Extent {
    match e.as_const() {
        Some(c) => Extent::Const(c),
        None => Extent::Dynamic(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Program {
        parse(&lex(src).unwrap(), src).unwrap_or_else(|e| panic!("{e}\nsource: {src}"))
    }

    fn parse_err(src: &str) -> ParseError {
        parse(&lex(src).unwrap(), src).unwrap_err()
    }

    #[test]
    fn minimal_function() {
        let p = parse_src("void f(int n) { }");
        assert_eq!(p.functions.len(), 1);
        assert_eq!(p.functions[0].params.len(), 1);
    }

    #[test]
    fn array_params_with_vla_dims() {
        let p = parse_src("void f(int n, int m, float a[n][m+1], const double b[8]) {}");
        let f = &p.functions[0];
        match &f.params[2] {
            Param::Array { ty, is_const, .. } => {
                assert_eq!(ty.rank(), 2);
                assert!(!ty.is_static());
                assert!(!is_const);
            }
            other => panic!("expected array param, got {other:?}"),
        }
        match &f.params[3] {
            Param::Array { ty, is_const, .. } => {
                assert!(ty.is_static());
                assert_eq!(ty.static_len(), Some(8));
                assert!(is_const);
            }
            other => panic!("expected array param, got {other:?}"),
        }
    }

    #[test]
    fn fortran_style_lower_bounds() {
        let p = parse_src("void f(int nz, float a[1:nz][0:8]) {}");
        match &p.functions[0].params[1] {
            Param::Array { ty, .. } => {
                assert!(ty.dims[0].lower.is_some());
                assert_eq!(ty.dims[1].lower.as_ref().and_then(|e| e.as_const()), Some(0));
                assert_eq!(ty.dims[1].extent.as_const(), Some(8));
            }
            other => panic!("expected array param, got {other:?}"),
        }
    }

    #[test]
    fn region_with_clauses() {
        let src = r#"
        void f(int n, float a[n], float b[n]) {
          #pragma acc kernels copyin(a) copyout(b) dim((a, b)) small(a, b)
          {
            #pragma acc loop gang vector
            for (int i = 0; i < n; i++) {
              b[i] = a[i] * 2.0;
            }
          }
        }
        "#;
        let p = parse_src(src);
        let regions = p.functions[0].regions();
        assert_eq!(regions.len(), 1);
        let r = regions[0];
        assert_eq!(r.directive.construct, AccConstruct::Kernels);
        assert_eq!(r.directive.clauses.data.len(), 2);
        assert_eq!(r.directive.clauses.dim_groups.len(), 1);
        assert_eq!(r.directive.clauses.small.len(), 2);
        match &r.body[0] {
            Stmt::For(f) => assert!(f.is_parallelized()),
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn dim_clause_with_bounds() {
        let src = r#"
        void f(int nx, int ny, float a[ny][nx], float b[ny][nx]) {
          #pragma acc kernels dim((0:nx, 0:ny)(a, b))
          {
            #pragma acc loop gang vector
            for (int i = 0; i < nx; i++) { a[0][i] = b[0][i]; }
          }
        }
        "#;
        let p = parse_src(src);
        let r = &p.functions[0].regions()[0].directive.clauses;
        let g = &r.dim_groups[0];
        assert_eq!(g.bounds.as_ref().unwrap().len(), 2);
        assert_eq!(g.arrays.len(), 2);
    }

    #[test]
    fn combined_kernels_loop_form() {
        let src = r#"
        void f(int n, float a[n]) {
          #pragma acc kernels loop gang(8) vector(64)
          for (int i = 0; i < n; i++) { a[i] = 1.0; }
        }
        "#;
        let p = parse_src(src);
        let r = &p.functions[0].regions()[0];
        match &r.body[0] {
            Stmt::For(f) => {
                let d = f.directive.as_ref().unwrap();
                assert_eq!(d.gang.as_ref().unwrap().as_ref().unwrap().as_const(), Some(8));
                assert_eq!(d.vector.as_ref().unwrap().as_ref().unwrap().as_const(), Some(64));
            }
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn reduction_clause() {
        let src = r#"
        void f(int n, float a[n], float s) {
          #pragma acc parallel
          {
            #pragma acc loop gang vector reduction(+:s)
            for (int i = 0; i < n; i++) { s += a[i]; }
          }
        }
        "#;
        let p = parse_src(src);
        let r = &p.functions[0].regions()[0];
        match &r.body[0] {
            Stmt::For(f) => {
                let red = &f.directive.as_ref().unwrap().reductions;
                assert_eq!(red.len(), 1);
                assert_eq!(red[0].op, ReduceOp::Add);
                assert_eq!(red[0].var.as_str(), "s");
            }
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn expression_precedence() {
        let p = parse_src("void f(float x) { x = 1.0 + 2.0 * 3.0; }");
        match &p.functions[0].body[0] {
            Stmt::Assign { rhs, .. } => match rhs {
                Expr::Binary(BinOp::Add, _, r) => {
                    assert!(matches!(**r, Expr::Binary(BinOp::Mul, _, _)));
                }
                other => panic!("expected add at top, got {other:?}"),
            },
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn casts_and_intrinsics() {
        let p = parse_src("void f(int i, double x) { x = (double) i + sqrt(x); }");
        match &p.functions[0].body[0] {
            Stmt::Assign { rhs: Expr::Binary(BinOp::Add, l, r), .. } => {
                assert!(matches!(**l, Expr::Cast(ScalarTy::F64, _)));
                assert!(matches!(**r, Expr::Call(Intrinsic::Sqrt, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn downward_loop() {
        let p = parse_src("void f(int n, float a[n]) { for (int i = n - 1; i >= 0; i--) { a[i] = 0.0; } }");
        match &p.functions[0].body[0] {
            Stmt::For(f) => {
                assert_eq!(f.step, -1);
                assert_eq!(f.cmp, LoopCmp::Ge);
            }
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn seq_loop_directive() {
        let src = r#"
        void f(int n, float a[n]) {
          #pragma acc kernels
          {
            #pragma acc loop gang vector
            for (int i = 0; i < n; i++) {
              #pragma acc loop seq
              for (int k = 0; k < 4; k++) { a[i] += 1.0; }
            }
          }
        }
        "#;
        let p = parse_src(src);
        let r = &p.functions[0].regions()[0];
        match &r.body[0] {
            Stmt::For(outer) => match &outer.body[0] {
                Stmt::For(inner) => {
                    assert!(inner.is_sequential());
                    assert!(inner.directive.as_ref().unwrap().seq);
                }
                other => panic!("expected inner for, got {other:?}"),
            },
            other => panic!("expected outer for, got {other:?}"),
        }
    }

    #[test]
    fn error_on_mismatched_loop_var() {
        let e = parse_err("void f(int n) { for (int i = 0; j < n; i++) { } }");
        assert!(e.message.contains("induction variable"), "{e}");
    }

    #[test]
    fn error_on_unknown_clause() {
        let e = parse_err("void f(int n, float a[n]) { \n#pragma acc kernels bogus(a)\n { } }");
        assert!(e.message.contains("unknown clause"), "{e}");
    }

    #[test]
    fn error_on_unknown_function_call() {
        let e = parse_err("void f(float x) { x = frobnicate(x); }");
        assert!(e.message.contains("unknown function"), "{e}");
    }

    #[test]
    fn compound_assign_parse() {
        let p = parse_src("void f(int n, float a[n]) { a[0] += 2.0; a[1] *= 3.0; }");
        match &p.functions[0].body[0] {
            Stmt::Assign { op, .. } => assert_eq!(*op, AssignOp::AddAssign),
            other => panic!("unexpected {other:?}"),
        }
    }
}
