//! The one document model behind `ifko report` and `ifko explain`: a
//! [`Doc`] of heading, line and [`Table`] blocks with three renderings.
//! Text is the reference walk; Markdown and JSON carry the same lines
//! and cells, Markdown with `##` headings and pipe tables, JSON as an
//! array of `{"heading"}`, `{"line"}` and `{"table"}` blocks.

use crate::json::esc;
use std::fmt::Display;

/// Which rendering of a [`Doc`] a command prints.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReportFormat {
    Text,
    Json,
    Markdown,
}

impl ReportFormat {
    pub fn parse(s: &str) -> Option<ReportFormat> {
        match s {
            "text" => Some(ReportFormat::Text),
            "json" => Some(ReportFormat::Json),
            "md" | "markdown" => Some(ReportFormat::Markdown),
            _ => None,
        }
    }
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    format!("\"{}\"", esc(s))
}

/// One column of a [`Table`]: its heading, the width cells are padded
/// to (longer cells are never cut), the side they are padded on, and the
/// spaces between it and the column to its left.
#[derive(Clone, Copy)]
pub(crate) struct Col {
    head: &'static str,
    width: usize,
    right: bool,
    gap: usize,
}

impl Col {
    /// A left-aligned column one space after its neighbour.
    pub(crate) const fn left(head: &'static str, width: usize) -> Col {
        Col {
            head,
            width,
            right: false,
            gap: 1,
        }
    }
    /// A right-aligned column one space after its neighbour.
    pub(crate) const fn right(head: &'static str, width: usize) -> Col {
        Col {
            right: true,
            ..Col::left(head, width)
        }
    }
    /// The same column `gap` spaces after its neighbour.
    pub(crate) const fn gap(self, gap: usize) -> Col {
        Col { gap, ..self }
    }
}

/// Rows of string cells under a fixed list of columns.
pub(crate) struct Table {
    cols: Vec<Col>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub(crate) fn new(cols: &[Col]) -> Table {
        Table {
            cols: cols.to_vec(),
            rows: Vec::new(),
        }
    }

    /// Append a row: one cell per column, in column order.
    pub(crate) fn row(&mut self, cells: &[&dyn Display]) {
        debug_assert_eq!(cells.len(), self.cols.len(), "one cell per column");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Remove the column headed `head` and its cells: how an optional
    /// column leaves the one table definition.
    pub(crate) fn drop_col(&mut self, head: &str) {
        if let Some(i) = self.cols.iter().position(|c| c.head == head) {
            self.cols.remove(i);
            for row in &mut self.rows {
                row.remove(i);
            }
        }
    }

    fn heads(&self) -> Vec<String> {
        self.cols.iter().map(|c| c.head.to_string()).collect()
    }

    /// The heading line, then one line per row, each cell padded to its
    /// column's width.
    fn text(&self) -> String {
        let mut out = String::new();
        for cells in std::iter::once(&self.heads()).chain(&self.rows) {
            for (i, (c, cell)) in self.cols.iter().zip(cells).enumerate() {
                if i > 0 {
                    out += &" ".repeat(c.gap);
                }
                let w = c.width;
                out += &if c.right {
                    format!("{cell:>w$}")
                } else {
                    format!("{cell:<w$}")
                };
            }
            out.push('\n');
        }
        out
    }

    /// A pipe table: heading row, alignment rule, then the rows, with any
    /// `|` inside a cell escaped.
    fn markdown(&self) -> String {
        let rule = self
            .cols
            .iter()
            .map(|c| if c.right { "---:" } else { "---" });
        let rule: Vec<String> = rule.map(str::to_string).collect();
        let mut out = String::new();
        for cells in [self.heads(), rule].iter().chain(&self.rows) {
            let cells: Vec<String> = cells.iter().map(|c| c.replace('|', "\\|")).collect();
            out += &format!("| {} |\n", cells.join(" | "));
        }
        out
    }

    /// One object per row, keyed by column heading, one row a line.
    fn json(&self) -> String {
        let rows = self.rows.iter().map(|cells| {
            let cells = self.cols.iter().zip(cells);
            let cells: Vec<String> = cells
                .map(|(c, cell)| format!("{}:{}", quote(c.head), quote(cell)))
                .collect();
            format!("{{{}}}", cells.join(","))
        });
        rows.collect::<Vec<_>>().join(",\n")
    }
}

enum Block {
    Heading(String),
    Line(String),
    Table(Table),
}

/// A report as a sequence of blocks, built once and rendered in any
/// [`ReportFormat`].
#[derive(Default)]
pub(crate) struct Doc(Vec<Block>);

impl Doc {
    pub(crate) fn heading(&mut self, h: impl Into<String>) {
        self.0.push(Block::Heading(h.into()));
    }
    /// One line of prose; an empty line is a blank line in the text
    /// rendering and nothing in Markdown, which separates every block,
    /// or in JSON.
    pub(crate) fn line(&mut self, l: impl Into<String>) {
        self.0.push(Block::Line(l.into()));
    }
    pub(crate) fn table(&mut self, t: Table) {
        self.0.push(Block::Table(t));
    }

    pub(crate) fn render(&self, format: ReportFormat) -> String {
        match format {
            ReportFormat::Text => self.text(),
            ReportFormat::Json => self.json(),
            ReportFormat::Markdown => self.markdown(),
        }
    }

    fn text(&self) -> String {
        let mut out = String::new();
        for b in &self.0 {
            match b {
                Block::Heading(h) => out += &format!("== {h} ==\n"),
                Block::Line(l) => out += &format!("{l}\n"),
                Block::Table(t) => out += &t.text(),
            }
        }
        out
    }

    fn markdown(&self) -> String {
        let blocks: Vec<String> = self
            .0
            .iter()
            .filter_map(|b| match b {
                Block::Heading(h) => Some(format!("## {h}\n")),
                Block::Line(l) if l.is_empty() => None,
                Block::Line(l) => Some(format!("{l}\n")),
                Block::Table(t) => Some(t.markdown()),
            })
            .collect();
        blocks.join("\n")
    }

    /// An array of blocks, one a line, followed by a newline.
    fn json(&self) -> String {
        let blocks: Vec<String> = self
            .0
            .iter()
            .filter_map(|b| match b {
                Block::Heading(h) => Some(format!("{{\"heading\":{}}}", quote(h))),
                Block::Line(l) if l.is_empty() => None,
                Block::Line(l) => Some(format!("{{\"line\":{}}}", quote(l))),
                Block::Table(t) => Some(format!("{{\"table\":[{}]}}", t.json())),
            })
            .collect();
        format!("[{}]\n", blocks.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Doc {
        let mut t = Table::new(&[
            Col::left("name", 6),
            Col::right("n", 4),
            Col::left("note", 0).gap(2),
        ]);
        t.row(&[&"a|b", &7, &"x"]);
        t.row(&[&"longer-than-6", &12345, &""]);
        let mut d = Doc::default();
        d.heading("scope");
        d.line("first");
        d.line("");
        d.table(t);
        d
    }

    #[test]
    fn text_pads_cells_and_never_cuts_them() {
        assert_eq!(
            sample().text(),
            "== scope ==\nfirst\n\nname      n  note\na|b       7  x\nlonger-than-6 12345  \n"
        );
    }

    #[test]
    fn markdown_carries_the_same_lines_and_cells() {
        assert_eq!(
            sample().markdown(),
            "## scope\n\nfirst\n\n| name | n | note |\n| --- | ---: | --- |\n\
             | a\\|b | 7 | x |\n| longer-than-6 | 12345 |  |\n"
        );
    }

    #[test]
    fn json_carries_the_same_lines_and_cells() {
        let json = sample().render(ReportFormat::Json);
        assert_eq!(
            json,
            "[{\"heading\":\"scope\"},\n{\"line\":\"first\"},\n\
             {\"table\":[{\"name\":\"a|b\",\"n\":\"7\",\"note\":\"x\"},\n\
             {\"name\":\"longer-than-6\",\"n\":\"12345\",\"note\":\"\"}]}]\n"
        );
        assert!(crate::json::parse_json(&json).is_some(), "{json}");
    }

    #[test]
    fn a_dropped_column_takes_its_cells_along() {
        let mut t = Table::new(&[Col::right("a", 2), Col::right("b", 2), Col::right("c", 2)]);
        t.row(&[&1, &2, &3]);
        t.drop_col("b");
        t.drop_col("absent");
        assert_eq!(t.text(), " a  c\n 1  3\n");
    }
}
