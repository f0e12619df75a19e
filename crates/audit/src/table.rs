//! Plain-text table rendering for analysis outputs.
//!
//! Every analysis struct has a `render_into()` that goes through
//! [`TextTable`], producing aligned monospace tables like the paper's.
//!
//! The table is arena-backed: all cell text lives in one `String` and cells
//! are `(start, end)` spans into it, so building a table performs O(1)
//! allocations regardless of row count. Cells are written with `fmt::Write`
//! (any `Display` value goes straight into the arena) and rendering streams
//! into a caller-provided buffer — the streaming-render contract the report
//! pipeline relies on (see DESIGN.md §13).

use std::fmt::{self, Write as _};

/// A titled, column-aligned text table.
///
/// Cell text is stored in a single arena `String`; rows are cell-count runs
/// over the span list. `cell()` accepts any `Display` value and formats it
/// directly into the arena.
#[derive(Debug, Clone)]
pub struct TextTable {
    title: String,
    /// All cell text, headers first, in append order.
    arena: String,
    /// `(start, end)` byte spans into `arena`, one per cell.
    spans: Vec<(u32, u32)>,
    /// Number of header cells (the first `header_cells` spans).
    header_cells: usize,
    /// Cells per data row, in row order.
    row_lens: Vec<u32>,
}

impl TextTable {
    /// Start a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> TextTable {
        let mut t = TextTable {
            title: title.to_string(),
            arena: String::new(),
            spans: Vec::new(),
            header_cells: headers.len(),
            row_lens: Vec::new(),
        };
        for h in headers {
            let start = t.arena.len() as u32;
            t.arena.push_str(h);
            t.spans.push((start, t.arena.len() as u32));
        }
        t
    }

    /// Start a new data row. Rows shorter than the header are right-padded
    /// with empty cells; longer rows extend the column set.
    pub fn row(&mut self) -> &mut TextTable {
        self.row_lens.push(0);
        self
    }

    /// Append one cell to the current row, formatting `value` straight into
    /// the arena. Starts a row implicitly if none is open.
    pub fn cell(&mut self, value: impl fmt::Display) -> &mut TextTable {
        if self.row_lens.is_empty() {
            self.row_lens.push(0);
        }
        let start = self.arena.len() as u32;
        let _ = write!(self.arena, "{value}"); // write to String is infallible
        self.spans.push((start, self.arena.len() as u32));
        if let Some(last) = self.row_lens.last_mut() {
            *last += 1;
        }
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.row_lens.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.row_lens.is_empty()
    }

    fn span_str(&self, span: (u32, u32)) -> &str {
        &self.arena[span.0 as usize..span.1 as usize]
    }

    /// Render with aligned columns, a title line, and a separator, appending
    /// to `out`. Returns the number of cells emitted (headers included) —
    /// the render work-unit figure charged to the virtual work clock.
    pub fn render_into(&self, out: &mut String) -> usize {
        let cols = self
            .row_lens
            .iter()
            .map(|&n| n as usize)
            .chain(std::iter::once(self.header_cells))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        // First pass: measure, walking the same row runs emit will.
        let measure = |widths: &mut [usize], first: usize, last: usize| {
            let cells = self.spans.get(first..last).unwrap_or_default();
            for (width, &span) in widths.iter_mut().zip(cells) {
                *width = (*width).max(self.span_str(span).chars().count());
            }
        };
        measure(&mut widths, 0, self.header_cells);
        let mut first = self.header_cells;
        for &n in &self.row_lens {
            measure(&mut widths, first, first + n as usize);
            first += n as usize;
        }

        let mut emitted = 0usize;
        out.push_str(&self.title);
        out.push('\n');
        emitted += self.emit_row(out, &widths, 0, self.header_cells);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        let dashes = total.max(self.title.chars().count());
        out.reserve(dashes + 1);
        for _ in 0..dashes {
            out.push('-');
        }
        out.push('\n');
        let mut first = self.header_cells;
        for &n in &self.row_lens {
            emitted += self.emit_row(out, &widths, first, first + n as usize);
            first += n as usize;
        }
        emitted
    }

    /// Emit one padded row (`spans[first..last]`) plus a newline, trimming
    /// trailing whitespace like the original row formatter did.
    fn emit_row(&self, out: &mut String, widths: &[usize], first: usize, last: usize) -> usize {
        let cells = self.spans.get(first..last).unwrap_or_default();
        for (col, w) in widths.iter().enumerate() {
            let text = cells.get(col).map_or("", |&span| self.span_str(span));
            out.push_str(text);
            if col + 1 < widths.len() {
                let pad = w.saturating_sub(text.chars().count()) + 2;
                for _ in 0..pad {
                    out.push(' ');
                }
            }
        }
        while out.ends_with(' ') || out.ends_with('\t') {
            out.pop();
        }
        out.push('\n');
        cells.len()
    }
}

/// Display adapter: a float with 3 decimals (the paper's bid-value
/// precision). Formats straight into the table arena — no intermediate
/// `String`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct F3(pub(crate) f64);

impl fmt::Display for F3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

/// Format a float with 3 decimals (the paper's bid-value precision).
pub(crate) fn f3(x: f64) -> F3 {
    F3(x)
}

/// Display adapter: a share as a percentage with 2 decimals.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pct(pub(crate) f64);

impl fmt::Display for Pct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}%", 100.0 * self.0)
    }
}

/// Format a share as a percentage with 2 decimals.
pub(crate) fn pct(x: f64) -> Pct {
    Pct(x)
}

/// Display adapter: a list joined with a separator (the second field),
/// formatted straight into the table arena (no `join` allocation per
/// rendered row).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Joined<'a, T>(pub(crate) &'a [T], pub(crate) &'static str);

impl<T: fmt::Display> fmt::Display for Joined<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Joined(items, sep) = *self;
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                f.write_str(sep)?;
            }
            write!(f, "{item}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rendered(t: &TextTable) -> String {
        let mut out = String::new();
        t.render_into(&mut out);
        out
    }

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new("Demo", &["Name", "Value"]);
        t.row().cell("alpha").cell(1);
        t.row().cell("a-much-longer-name").cell(22);
        let out = rendered(&t);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "Demo");
        assert!(lines[1].starts_with("Name"));
        // Both value cells start in the same column.
        let col = lines[3].find('1').unwrap();
        assert_eq!(lines[4].find("22").unwrap(), col);
    }

    #[test]
    fn handles_ragged_rows() {
        let mut t = TextTable::new("R", &["A"]);
        t.row().cell("x").cell("extra").cell("more");
        t.row().cell("y");
        let out = rendered(&t);
        assert!(out.contains("extra"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(0.0301).to_string(), "0.030");
        assert_eq!(pct(0.0940).to_string(), "9.40%");
        let items = ["a", "b", "c"];
        assert_eq!(Joined(&items, "; ").to_string(), "a; b; c");
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = TextTable::new("E", &["H1", "H2"]);
        let out = rendered(&t);
        assert!(out.contains("H1"));
        assert_eq!(out.lines().count(), 3);
    }

    #[test]
    fn render_into_appends_and_counts_cells() {
        let mut t = TextTable::new("W", &["A", "B"]);
        t.row().cell(1).cell(2);
        t.row().cell(3).cell(4);
        let mut buf = String::from("prefix\n");
        let cells = t.render_into(&mut buf);
        assert!(buf.starts_with("prefix\nW\n"));
        // 2 header cells + 4 data cells.
        assert_eq!(cells, 6);
        // Byte-compatible with the fresh-String path.
        assert_eq!(buf["prefix\n".len()..], rendered(&t));
    }

    #[test]
    fn implicit_row_start() {
        let mut t = TextTable::new("I", &["A"]);
        t.cell("lone");
        assert_eq!(t.len(), 1);
        assert!(rendered(&t).contains("lone"));
    }
}
