//! Byte-span source locations.

/// A half-open byte range `[start, end)` into the original source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: u32,
    /// Byte offset one past the last character.
    pub end: u32,
}

impl Span {
    /// Construct a span from byte offsets.
    pub fn new(start: usize, end: usize) -> Self {
        Span { start: start as u32, end: end as u32 }
    }

    /// Smallest span covering both `self` and `other`.
    pub fn merge(self, other: Span) -> Span {
        Span { start: self.start.min(other.start), end: self.end.max(other.end) }
    }

    /// 1-based (line, column) of the span start within `src`.
    pub fn line_col(&self, src: &str) -> (usize, usize) {
        let upto = &src[..(self.start as usize).min(src.len())];
        let line = upto.bytes().filter(|&b| b == b'\n').count() + 1;
        let col = upto.len() - upto.rfind('\n').map(|p| p + 1).unwrap_or(0) + 1;
        (line, col)
    }

    /// The text the span covers within `src`.
    pub fn slice<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start as usize..(self.end as usize).min(src.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_covers_both() {
        let a = Span::new(4, 8);
        let b = Span::new(10, 12);
        assert_eq!(a.merge(b), Span::new(4, 12));
        assert_eq!(b.merge(a), Span::new(4, 12));
    }

    #[test]
    fn line_col_basic() {
        let src = "ab\ncd\nef";
        assert_eq!(Span::new(0, 1).line_col(src), (1, 1));
        assert_eq!(Span::new(3, 4).line_col(src), (2, 1));
        assert_eq!(Span::new(7, 8).line_col(src), (3, 2));
    }

    #[test]
    fn slice_returns_covered_text() {
        let src = "hello world";
        assert_eq!(Span::new(6, 11).slice(src), "world");
    }
}
