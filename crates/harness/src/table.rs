//! Aligned text and Markdown tables for experiment reports, plus the
//! shared latency-percentile formatting every report uses (one path for
//! `scale_sweep`, `throughput_sweep` and `CLAIMS.md`, so percentile
//! columns can never drift in units or precision between reports).

use wamcast_metrics::Histogram;

/// Formats a nanosecond quantity as milliseconds with two decimals — the
/// unit every latency table column uses.
///
/// # Example
///
/// ```
/// assert_eq!(wamcast_harness::table::fmt_ms(1_500_000), "1.50");
/// ```
pub fn fmt_ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

/// The shared `[p50, p99, p999]` latency cells (milliseconds) extracted
/// from a histogram. An empty histogram renders as zeros.
///
/// # Example
///
/// ```
/// use wamcast_harness::table::percentile_cells;
/// use wamcast_metrics::Histogram;
///
/// let mut h = Histogram::new();
/// h.record(2_000_000); // 2 ms
/// assert_eq!(percentile_cells(&h).len(), 3);
/// ```
pub fn percentile_cells(h: &Histogram) -> Vec<String> {
    [h.p50(), h.p99(), h.p999()]
        .iter()
        .map(|&ns| fmt_ms(ns))
        .collect()
}

/// A simple column-aligned text table.
///
/// # Example
///
/// ```
/// use wamcast_harness::Table;
/// let mut t = Table::new(vec!["algo", "degree"]);
/// t.row(vec!["A1".into(), "2".into()]);
/// let s = t.render();
/// assert!(s.contains("A1"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (shorter rows are padded with empty cells).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns and a separator line.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain([self.headers.len()])
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        let measure = |widths: &mut Vec<usize>, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        };
        measure(&mut widths, &self.headers);
        for r in &self.rows {
            measure(&mut widths, r);
        }
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let empty = String::new();
                let c = cells.get(i).unwrap_or(&empty);
                line.push_str(c);
                for _ in c.chars().count()..*w {
                    line.push(' ');
                }
                if i + 1 != widths.len() {
                    line.push_str("  ");
                }
            }
            line.trim_end().to_string()
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders the table as a Markdown pipe table (the layout of
    /// `CLAIMS.md`):
    ///
    /// ```
    /// let mut t = wamcast_harness::Table::new(vec!["a", "b"]);
    /// t.row(vec!["1".into(), "2".into()]);
    /// assert_eq!(t.markdown(), "| a | b |\n| --- | --- |\n| 1 | 2 |\n");
    /// ```
    pub fn markdown(&self) -> String {
        let line = |cells: &[String]| format!("| {} |\n", cells.join(" | "));
        let mut out = line(&self.headers);
        out.push_str(&line(&vec!["---".to_string(); self.headers.len()]));
        for r in &self.rows {
            out.push_str(&line(r));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["short".into(), "1".into()]);
        t.row(vec!["a-much-longer-name".into(), "42".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // The value column starts at the same offset in both data rows.
        let off1 = lines[2].find('1').unwrap();
        let off2 = lines[3].find("42").unwrap();
        assert_eq!(off1, off2);
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn pads_short_rows() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["only-one".into()]);
        let s = t.render();
        assert!(s.contains("only-one"));
    }
}
