//! The MiniACC abstract syntax tree.
//!
//! A translation unit ([`Program`]) is a list of functions. Each function's
//! body is ordinary structured code in which *offload regions* (an
//! `#pragma acc kernels` / `parallel` directive applied to a block or loop)
//! mark the code that is compiled for the device.
//!
//! Array parameters may have *runtime* dimensions ("VLA"s in C, allocatable
//! arrays in Fortran). Each runtime dimension carries an optional lower
//! bound (Fortran-style `a[1:nz]`), defaulting to 0 (C-style). At code
//! generation these are materialized as dope-vector scalars — exactly the
//! temporaries the paper's `dim` clause eliminates.

use crate::directive::{LoopDirective, RegionDirective};
use crate::span::Span;
use std::fmt;
use std::sync::Arc;

/// An interned-ish identifier. Cheap to clone, compares by string value.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ident(pub Arc<str>);

impl Ident {
    /// Create an identifier from any string-like value.
    pub fn new(s: impl AsRef<str>) -> Self {
        Ident(Arc::from(s.as_ref()))
    }

    /// View as `&str`.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}`", self.0)
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Ident {
    fn from(s: &str) -> Self {
        Ident::new(s)
    }
}

/// Scalar value types of MiniACC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScalarTy {
    /// `int` — 32-bit signed integer.
    I32,
    /// `long` — 64-bit signed integer.
    I64,
    /// `float` — IEEE-754 binary32.
    F32,
    /// `double` — IEEE-754 binary64.
    F64,
}

impl ScalarTy {
    /// Size of a value of this type in bytes.
    pub fn size_bytes(self) -> u32 {
        match self {
            ScalarTy::I32 | ScalarTy::F32 => 4,
            ScalarTy::I64 | ScalarTy::F64 => 8,
        }
    }

    /// True for `float`/`double`.
    pub fn is_float(self) -> bool {
        matches!(self, ScalarTy::F32 | ScalarTy::F64)
    }

    /// True for `int`/`long`.
    pub fn is_int(self) -> bool {
        !self.is_float()
    }

    /// C keyword for the type.
    pub fn keyword(self) -> &'static str {
        match self {
            ScalarTy::I32 => "int",
            ScalarTy::I64 => "long",
            ScalarTy::F32 => "float",
            ScalarTy::F64 => "double",
        }
    }

    /// The type a binary operation computes in, as code generation
    /// computes it: float beats int and wider beats narrower, except that
    /// `float` with `long` is `double` (a `float` cannot hold a `long`).
    pub fn unify(self, other: ScalarTy) -> ScalarTy {
        use ScalarTy::*;
        match (self, other) {
            (F64, _) | (_, F64) | (F32, I64) | (I64, F32) => F64,
            (F32, _) | (_, F32) => F32,
            (I64, _) | (_, I64) => I64,
            _ => I32,
        }
    }
}

impl fmt::Display for ScalarTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// One dimension of an array type.
#[derive(Debug, Clone, PartialEq)]
pub struct Dim {
    /// Lower bound of the index range. `None` means 0 (C-style).
    pub lower: Option<Expr>,
    /// Number of elements along this dimension. Either a compile-time
    /// constant or an expression over integer scalar parameters (a VLA /
    /// allocatable dimension, which needs dope-vector temporaries).
    pub extent: Extent,
}

impl Dim {
    /// A C-style dimension with extent `e` and lower bound 0.
    pub fn extent(e: Extent) -> Self {
        Dim { lower: None, extent: e }
    }

    /// True if both bound and extent are compile-time constants.
    pub fn is_static(&self) -> bool {
        self.lower.as_ref().is_none_or(|e| e.as_const().is_some())
            && matches!(self.extent, Extent::Const(_))
    }
}

/// An array dimension extent.
#[derive(Debug, Clone, PartialEq)]
pub enum Extent {
    /// Known at compile time (a static array dimension).
    Const(i64),
    /// Runtime expression over integer parameters (VLA / allocatable).
    Dynamic(Expr),
}

impl Extent {
    /// The constant value, if static.
    pub fn as_const(&self) -> Option<i64> {
        match self {
            Extent::Const(c) => Some(*c),
            Extent::Dynamic(e) => e.as_const(),
        }
    }
}

/// The type of an array parameter: element type plus one `Dim` per
/// dimension, outermost first (row-major; the **last** dimension is
/// contiguous in memory).
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayTy {
    /// Element scalar type.
    pub elem: ScalarTy,
    /// Dimensions, slowest-varying first.
    pub dims: Vec<Dim>,
}

impl ArrayTy {
    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// True if every dimension is a compile-time constant (a static array,
    /// for which the compiler already knows sizes and the `small` clause is
    /// unnecessary, per §IV-B of the paper).
    pub fn is_static(&self) -> bool {
        self.dims.iter().all(Dim::is_static)
    }

    /// Total element count if fully static.
    pub fn static_len(&self) -> Option<i64> {
        self.dims.iter().map(|d| d.extent.as_const()).try_fold(1i64, |a, e| e.map(|v| a * v))
    }
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum Param {
    /// A scalar (passed by value to the kernel).
    Scalar {
        /// Parameter name.
        name: Ident,
        /// Scalar type.
        ty: ScalarTy,
    },
    /// An array (passed as base pointer + dope vector).
    Array {
        /// Parameter name.
        name: Ident,
        /// Array type (element type + dims).
        ty: ArrayTy,
        /// Declared `const` — the region never writes it, making it a
        /// candidate for the GPU read-only data cache.
        is_const: bool,
    },
}

impl Param {
    /// The parameter's name.
    pub fn name(&self) -> &Ident {
        match self {
            Param::Scalar { name, .. } | Param::Array { name, .. } => name,
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%` (integers only)
    Rem,
    /// `<<` (integers only; wrapping shift, the strength-reduced form of
    /// multiplication by a power of two)
    Shl,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl BinOp {
    /// True for comparison and logical operators (result type is `int`).
    pub fn is_relational(self) -> bool {
        use BinOp::*;
        matches!(self, Lt | Le | Gt | Ge | Eq | Ne | And | Or)
    }

    /// Source token for the operator.
    pub fn symbol(self) -> &'static str {
        use BinOp::*;
        match self {
            Add => "+",
            Sub => "-",
            Mul => "*",
            Div => "/",
            Rem => "%",
            Shl => "<<",
            Lt => "<",
            Le => "<=",
            Gt => ">",
            Ge => ">=",
            Eq => "==",
            Ne => "!=",
            And => "&&",
            Or => "||",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-`.
    Neg,
    /// Logical not `!`.
    Not,
}

/// Built-in math functions (lowered to GPU special-function instructions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    /// `sqrt(x)`
    Sqrt,
    /// `exp(x)`
    Exp,
    /// `log(x)`
    Log,
    /// `sin(x)`
    Sin,
    /// `cos(x)`
    Cos,
    /// `fabs(x)` / `abs(x)`
    Abs,
    /// `pow(x, y)`
    Pow,
    /// `min(x, y)` / `fmin`
    Min,
    /// `max(x, y)` / `fmax`
    Max,
    /// `floor(x)`
    Floor,
}

impl Intrinsic {
    /// The type a call computes in, given its argument types, as code
    /// generation computes it: `min`/`max`/`fabs` over integers stay
    /// integral; `min`/`max` otherwise unify the arguments' float types
    /// (`int` → `float`, `long` → `double`); every other call is `float`
    /// only when all its arguments are `float`, else `double`.
    pub fn result_ty(self, args: &[ScalarTy]) -> ScalarTy {
        use ScalarTy::*;
        let all_int = args.iter().all(|t| t.is_int());
        match self {
            Intrinsic::Min | Intrinsic::Max | Intrinsic::Abs if all_int => {
                args.iter().copied().reduce(ScalarTy::unify).unwrap_or(I32)
            }
            Intrinsic::Min | Intrinsic::Max => args
                .iter()
                .map(|t| if matches!(t, I64 | F64) { F64 } else { F32 })
                .fold(F32, ScalarTy::unify),
            _ if args.iter().all(|t| *t == F32) => F32,
            _ => F64,
        }
    }

    /// Number of arguments the intrinsic takes.
    pub fn arity(self) -> usize {
        match self {
            Intrinsic::Pow | Intrinsic::Min | Intrinsic::Max => 2,
            _ => 1,
        }
    }

    /// Canonical source name.
    pub fn name(self) -> &'static str {
        match self {
            Intrinsic::Sqrt => "sqrt",
            Intrinsic::Exp => "exp",
            Intrinsic::Log => "log",
            Intrinsic::Sin => "sin",
            Intrinsic::Cos => "cos",
            Intrinsic::Abs => "fabs",
            Intrinsic::Pow => "pow",
            Intrinsic::Min => "min",
            Intrinsic::Max => "max",
            Intrinsic::Floor => "floor",
        }
    }

    /// Look up an intrinsic by source name.
    pub fn from_name(name: &str) -> Option<Intrinsic> {
        Some(match name {
            "sqrt" => Intrinsic::Sqrt,
            "exp" => Intrinsic::Exp,
            "log" => Intrinsic::Log,
            "sin" => Intrinsic::Sin,
            "cos" => Intrinsic::Cos,
            "fabs" | "abs" => Intrinsic::Abs,
            "pow" => Intrinsic::Pow,
            "min" | "fmin" => Intrinsic::Min,
            "max" | "fmax" => Intrinsic::Max,
            "floor" => Intrinsic::Floor,
            _ => return None,
        })
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    IntLit(i64),
    /// Floating-point literal.
    FloatLit(f64),
    /// Scalar variable reference.
    Var(Ident),
    /// Array element reference `a[i][j]...` (one index per dimension).
    ArrayRef(ArrayRef),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Intrinsic call.
    Call(Intrinsic, Vec<Expr>),
    /// Explicit cast `(type) expr`.
    Cast(ScalarTy, Box<Expr>),
}

/// An array element reference.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayRef {
    /// The array being indexed.
    pub array: Ident,
    /// One index expression per dimension, outermost first.
    pub indices: Vec<Expr>,
}

impl Expr {
    /// Fold the expression to an integer constant if it is one (handles
    /// literals and integer arithmetic on literals).
    pub fn as_const(&self) -> Option<i64> {
        match self {
            Expr::IntLit(v) => Some(*v),
            Expr::Unary(UnOp::Neg, e) => e.as_const().map(|v| v.wrapping_neg()),
            Expr::Binary(op, a, b) => {
                let (a, b) = (a.as_const()?, b.as_const()?);
                Some(match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::Div if b != 0 => a.wrapping_div(b),
                    BinOp::Rem if b != 0 => a.wrapping_rem(b),
                    // Only in-range shift counts fold: the engines mask
                    // the count per operand width, so a 32-bit-safe range
                    // keeps the fold width-independent.
                    BinOp::Shl if (0..32).contains(&b) => a.wrapping_shl(b as u32),
                    _ => return None,
                })
            }
            _ => None,
        }
    }

    /// Convenience constructor for `a <op> b`.
    pub fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Binary(op, Box::new(a), Box::new(b))
    }

    /// Convenience constructor for a variable reference.
    pub fn var(name: impl AsRef<str>) -> Expr {
        Expr::Var(Ident::new(name))
    }
}

/// Assignment operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignOp {
    /// `=`
    Assign,
    /// `+=`
    AddAssign,
    /// `-=`
    SubAssign,
    /// `*=`
    MulAssign,
    /// `/=`
    DivAssign,
}

impl AssignOp {
    /// The underlying binary operator for compound assignments.
    pub fn bin_op(self) -> Option<BinOp> {
        match self {
            AssignOp::Assign => None,
            AssignOp::AddAssign => Some(BinOp::Add),
            AssignOp::SubAssign => Some(BinOp::Sub),
            AssignOp::MulAssign => Some(BinOp::Mul),
            AssignOp::DivAssign => Some(BinOp::Div),
        }
    }

    /// Source token.
    pub fn symbol(self) -> &'static str {
        match self {
            AssignOp::Assign => "=",
            AssignOp::AddAssign => "+=",
            AssignOp::SubAssign => "-=",
            AssignOp::MulAssign => "*=",
            AssignOp::DivAssign => "/=",
        }
    }
}

/// The target of an assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// A scalar variable.
    Var(Ident),
    /// An array element.
    ArrayRef(ArrayRef),
}

/// Loop comparison direction in the `for` header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoopCmp {
    /// `i < hi`
    Lt,
    /// `i <= hi`
    Le,
    /// `i > hi` (downward loop)
    Gt,
    /// `i >= hi` (downward loop)
    Ge,
}

impl LoopCmp {
    /// Source token.
    pub fn symbol(self) -> &'static str {
        match self {
            LoopCmp::Lt => "<",
            LoopCmp::Le => "<=",
            LoopCmp::Gt => ">",
            LoopCmp::Ge => ">=",
        }
    }

    /// True if the loop counts downward.
    pub fn is_downward(self) -> bool {
        matches!(self, LoopCmp::Gt | LoopCmp::Ge)
    }
}

/// A structured counted loop:
/// `for (var = lo; var CMP bound; var += step) body`.
#[derive(Debug, Clone, PartialEq)]
pub struct ForLoop {
    /// Induction variable (always `int`).
    pub var: Ident,
    /// Whether the header declares the variable (`for (int i = ...`)
    /// as opposed to assigning an existing one.
    pub declares_var: bool,
    /// Initial value.
    pub lo: Expr,
    /// Comparison against `bound`.
    pub cmp: LoopCmp,
    /// Loop bound expression.
    pub bound: Expr,
    /// Step (constant; negative for downward loops). `i++` is step 1.
    pub step: i64,
    /// Optional `#pragma acc loop ...` attached to this loop.
    pub directive: Option<LoopDirective>,
    /// Loop body.
    pub body: Vec<Stmt>,
    /// Source location of the loop header.
    pub span: Span,
}

impl ForLoop {
    /// True if the directive schedules this loop across gangs/vector lanes
    /// (i.e. the loop is parallelized on the device).
    pub fn is_parallelized(&self) -> bool {
        self.directive.as_ref().is_some_and(|d| d.is_parallel())
    }

    /// True if the directive forces sequential execution (`seq`), or no
    /// scheduling clause is present.
    pub fn is_sequential(&self) -> bool {
        !self.is_parallelized()
    }
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Local scalar declaration with optional initializer.
    DeclScalar {
        /// Variable name.
        name: Ident,
        /// Scalar type.
        ty: ScalarTy,
        /// Optional initializer.
        init: Option<Expr>,
    },
    /// Assignment (plain or compound).
    Assign {
        /// Assignment target.
        lhs: LValue,
        /// `=`, `+=`, ...
        op: AssignOp,
        /// Right-hand side.
        rhs: Expr,
    },
    /// A `for` loop.
    For(Box<ForLoop>),
    /// An `if`/`else`.
    If {
        /// Condition (nonzero = true).
        cond: Expr,
        /// Then-branch statements.
        then_body: Vec<Stmt>,
        /// Else-branch statements (empty if absent).
        else_body: Vec<Stmt>,
    },
    /// A braced block (scoping only).
    Block(Vec<Stmt>),
    /// An offload region (`#pragma acc kernels` / `parallel` + block).
    Region(Box<OffloadRegion>),
}

/// An OpenACC offload region: the paper calls both `kernels` and
/// `parallel` regions "offload regions".
#[derive(Debug, Clone, PartialEq)]
pub struct OffloadRegion {
    /// The region directive (construct kind and all clauses, including
    /// the proposed `dim` and `small` extensions).
    pub directive: RegionDirective,
    /// Region body: the loop nest(s) offloaded to the device.
    pub body: Vec<Stmt>,
    /// Source location of the `#pragma`.
    pub span: Span,
}

/// A function: name, parameters, body.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name (becomes the kernel name prefix).
    pub name: Ident,
    /// Parameters in declaration order.
    pub params: Vec<Param>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Source location of the signature.
    pub span: Span,
}

impl Function {
    /// Find a parameter by name.
    pub fn param(&self, name: &Ident) -> Option<&Param> {
        self.params.iter().find(|p| p.name() == name)
    }

    /// All offload regions in the body, in source order.
    pub fn regions(&self) -> Vec<&OffloadRegion> {
        fn walk<'a>(stmts: &'a [Stmt], out: &mut Vec<&'a OffloadRegion>) {
            for s in stmts {
                match s {
                    Stmt::Region(r) => out.push(r),
                    Stmt::For(f) => walk(&f.body, out),
                    Stmt::If { then_body, else_body, .. } => {
                        walk(then_body, out);
                        walk(else_body, out);
                    }
                    Stmt::Block(b) => walk(b, out),
                    _ => {}
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.body, &mut out);
        out
    }

    /// [`Function::regions`], mutably: what a transformation pass
    /// rewrites in place.
    pub fn regions_mut(&mut self) -> Vec<&mut OffloadRegion> {
        fn walk<'a>(stmts: &'a mut [Stmt], out: &mut Vec<&'a mut OffloadRegion>) {
            for s in stmts {
                match s {
                    Stmt::Region(r) => out.push(r),
                    Stmt::For(f) => walk(&mut f.body, out),
                    Stmt::If { then_body, else_body, .. } => {
                        walk(then_body, out);
                        walk(else_body, out);
                    }
                    Stmt::Block(b) => walk(b, out),
                    _ => {}
                }
            }
        }
        let mut out = Vec::new();
        walk(&mut self.body, &mut out);
        out
    }
}

/// A MiniACC translation unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Functions in declaration order.
    pub functions: Vec<Function>,
}

impl Program {
    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name.as_str() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_ty_sizes_and_unify() {
        assert_eq!(ScalarTy::I32.size_bytes(), 4);
        assert_eq!(ScalarTy::F64.size_bytes(), 8);
        assert_eq!(ScalarTy::I32.unify(ScalarTy::F32), ScalarTy::F32);
        assert_eq!(ScalarTy::I64.unify(ScalarTy::I32), ScalarTy::I64);
        assert_eq!(ScalarTy::F32.unify(ScalarTy::F64), ScalarTy::F64);
    }

    #[test]
    fn const_folding() {
        let e = Expr::bin(
            BinOp::Mul,
            Expr::bin(BinOp::Add, Expr::IntLit(2), Expr::IntLit(3)),
            Expr::IntLit(4),
        );
        assert_eq!(e.as_const(), Some(20));
        assert_eq!(Expr::var("x").as_const(), None);
        let div0 = Expr::bin(BinOp::Div, Expr::IntLit(1), Expr::IntLit(0));
        assert_eq!(div0.as_const(), None);
    }

    #[test]
    fn array_ty_static_detection() {
        let stat = ArrayTy {
            elem: ScalarTy::F32,
            dims: vec![Dim::extent(Extent::Const(8)), Dim::extent(Extent::Const(4))],
        };
        assert!(stat.is_static());
        assert_eq!(stat.static_len(), Some(32));

        let dynamic = ArrayTy {
            elem: ScalarTy::F32,
            dims: vec![Dim::extent(Extent::Dynamic(Expr::var("n")))],
        };
        assert!(!dynamic.is_static());
        assert_eq!(dynamic.static_len(), None);
    }

    #[test]
    fn intrinsic_lookup_roundtrip() {
        for i in [
            Intrinsic::Sqrt,
            Intrinsic::Exp,
            Intrinsic::Log,
            Intrinsic::Sin,
            Intrinsic::Cos,
            Intrinsic::Abs,
            Intrinsic::Pow,
            Intrinsic::Min,
            Intrinsic::Max,
            Intrinsic::Floor,
        ] {
            assert_eq!(Intrinsic::from_name(i.name()), Some(i));
        }
        assert_eq!(Intrinsic::from_name("nosuch"), None);
    }
}
