//! Structured experiment output: markdown tables, the ordered
//! [`PhaseLedger`] shared by every step breakdown, and the [`Report`]
//! value type the artifact registry returns.
//!
//! A [`Report`] carries named scalar metrics, typed [`Table`]s and
//! free-form notes; it renders to markdown (`tensortee run`) and —
//! because the vendored `serde` is a no-op — to JSON via the hand-rolled
//! writer in [`crate::json`].

use crate::json::Json;
use tee_sim::Time;

/// A markdown table builder.
///
/// Columns whose body cells are all numeric (leading digit or sign, e.g.
/// `3.0x`, `50.0%`, `12 ms`) render right-aligned; everything else stays
/// left-aligned.
///
/// # Example
///
/// ```
/// use tensortee::report::Table;
/// let mut t = Table::new(["model", "speedup"]);
/// t.row(["GPT2-M", "3.0x"]);
/// let md = t.to_markdown();
/// assert!(md.contains("| GPT2-M |    3.0x |"));
/// assert!(md.contains("|---|---:|"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    caption: Option<String>,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(header: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Table {
            caption: None,
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Sets the caption rendered above the table (builder form). Pair it
    /// with the artifact's paper anchor so every table carries its paper
    /// reference: `Table::new(...).captioned("Figure 16 — overall")`.
    pub fn captioned(mut self, caption: impl Into<String>) -> Self {
        self.caption = Some(caption.into());
        self
    }

    /// The caption, if set.
    pub fn caption(&self) -> Option<&str> {
        self.caption.as_deref()
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Number of data rows. Read only by tests (the report, `hw` and
    /// `obs` table tests).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows (the pair clippy expects of
    /// [`Self::len`]; read only by `empty_table_left_aligns`).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Whether column `col` should render right-aligned: every body cell
    /// is numeric-leading (optional sign, then a digit) and there is at
    /// least one row.
    fn right_aligned(&self, col: usize) -> bool {
        !self.rows.is_empty()
            && self.rows.iter().all(|r| {
                let cell = r[col].trim();
                let digits = cell.strip_prefix(['-', '+']).unwrap_or(cell);
                digits.starts_with(|c: char| c.is_ascii_digit())
            })
    }

    /// Renders GitHub-flavored markdown: caption line (if any), header,
    /// alignment separator, then width-padded rows.
    pub fn to_markdown(&self) -> String {
        let cols = self.header.len();
        let right: Vec<bool> = (0..cols).map(|c| self.right_aligned(c)).collect();
        let mut width: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                width[c] = width[c].max(cell.chars().count());
            }
        }
        let pad = |cell: &str, c: usize| {
            let fill = width[c].saturating_sub(cell.chars().count());
            if right[c] {
                format!("{}{}", " ".repeat(fill), cell)
            } else {
                format!("{}{}", cell, " ".repeat(fill))
            }
        };
        let mut out = String::new();
        if let Some(cap) = &self.caption {
            out.push_str(&format!("*{cap}*\n\n"));
        }
        let header: Vec<String> = self
            .header
            .iter()
            .enumerate()
            .map(|(c, h)| pad(h, c))
            .collect();
        out.push_str(&format!("| {} |\n", header.join(" | ")));
        out.push('|');
        for right in &right {
            out.push_str(if *right { "---:|" } else { "---|" });
        }
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row.iter().enumerate().map(|(c, s)| pad(s, c)).collect();
            out.push_str(&format!("| {} |\n", cells.join(" | ")));
        }
        out
    }

    /// The table as a JSON object: `{caption, columns, rows}`.
    pub fn to_json(&self) -> Json {
        Json::object([
            (
                "caption",
                match &self.caption {
                    Some(c) => Json::str(c.clone()),
                    None => Json::Null,
                },
            ),
            (
                "columns",
                Json::Array(self.header.iter().map(|h| Json::str(h.clone())).collect()),
            ),
            (
                "rows",
                Json::Array(
                    self.rows
                        .iter()
                        .map(|r| Json::Array(r.iter().map(|c| Json::str(c.clone())).collect()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// An ordered phase → time ledger: the shared shape behind
/// [`crate::StepBreakdown`] and [`crate::ClusterStepBreakdown`].
///
/// Totals left-fold in insertion order, so a breakdown that delegates to
/// its ledger produces bit-for-bit the same [`Time`] as summing its fields
/// by hand.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PhaseLedger {
    entries: Vec<(&'static str, Time)>,
}

impl PhaseLedger {
    /// Builds a ledger from `(label, time)` entries in order.
    pub fn from_entries<I>(entries: I) -> Self
    where
        I: IntoIterator<Item = (&'static str, Time)>,
    {
        PhaseLedger {
            entries: entries.into_iter().collect(),
        }
    }

    /// Total time: the left-fold of the entries in insertion order.
    pub fn total(&self) -> Time {
        self.entries.iter().fold(Time::ZERO, |acc, (_, t)| acc + *t)
    }

    /// Per-phase fractions of the total, in insertion order; they sum to 1
    /// for a non-empty, non-zero ledger.
    pub fn fractions(&self) -> Vec<(&'static str, f64)> {
        let total = self.total().as_ps().max(1) as f64;
        self.entries
            .iter()
            .map(|(l, t)| (*l, t.as_ps() as f64 / total))
            .collect()
    }
}

/// A structured experiment result: what every registered
/// [`crate::artifact::Artifact`] returns.
///
/// The markdown rendering is the paper-shaped view (tables first, then
/// summary lines); the JSON export is the machine-readable view the
/// `tensortee` CLI emits under `--json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    id: String,
    title: String,
    paper_anchor: String,
    metrics: Vec<(String, f64)>,
    tables: Vec<Table>,
    notes: Vec<String>,
}

impl Report {
    /// Creates an empty report for the artifact `id`.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        paper_anchor: impl Into<String>,
    ) -> Self {
        Report {
            id: id.into(),
            title: title.into(),
            paper_anchor: paper_anchor.into(),
            metrics: Vec::new(),
            tables: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Records a named scalar metric (insertion-ordered). NaN and
    /// infinite values are kept here but normalize to `null` in the JSON
    /// export (see [`crate::json`]).
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// The value of metric `name`, if recorded. Test oracle: the
    /// integration suites (`tests/attack.rs`, `tests/explore.rs`,
    /// `tests/des_cluster.rs`) and the artifact unit tests read reports
    /// through it.
    pub fn metric_value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Appends a table; if the table has no caption it inherits the
    /// report's paper anchor so every rendered table carries its paper
    /// reference.
    pub fn table(&mut self, table: Table) {
        let table = if table.caption().is_none() {
            let cap = format!("{} ({})", self.title, self.paper_anchor);
            table.captioned(cap)
        } else {
            table
        };
        self.tables.push(table);
    }

    /// Appends a free-form note line (summary sentences, timeline
    /// renders).
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Renders the full artifact as markdown: title header, captioned
    /// tables, then notes.
    pub fn to_markdown(&self) -> String {
        let header = format!("{} ({})", self.title, self.paper_anchor);
        let mut out = format!("## {header}\n\n");
        for t in &self.tables {
            // An inherited caption would just repeat the header line —
            // drop it from the markdown view (it stays in the JSON).
            if t.caption() == Some(header.as_str()) {
                let mut bare = t.clone();
                bare.caption = None;
                out.push_str(&bare.to_markdown());
            } else {
                out.push_str(&t.to_markdown());
            }
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(n);
            out.push('\n');
        }
        out
    }

    /// The machine-readable view:
    /// `{id, title, paper_anchor, metrics, tables, notes}`.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("id", Json::str(self.id.clone())),
            ("title", Json::str(self.title.clone())),
            ("paper_anchor", Json::str(self.paper_anchor.clone())),
            (
                "metrics",
                Json::Object(
                    self.metrics
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::Float(*v)))
                        .collect(),
                ),
            ),
            (
                "tables",
                Json::Array(self.tables.iter().map(Table::to_json).collect()),
            ),
            (
                "notes",
                Json::Array(self.notes.iter().map(|n| Json::str(n.clone())).collect()),
            ),
        ])
    }
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::is_well_formed;

    #[test]
    fn renders_header_separator_rows() {
        let mut t = Table::new(["name", "b"]);
        t.row(["one", "2"]);
        t.row(["three", "4"]);
        let md = t.to_markdown();
        // Text column left-aligned, numeric column right-aligned.
        assert!(md.starts_with("| name  | b |\n|---|---:|\n"), "{md}");
        assert!(md.contains("| one   | 2 |\n"));
        assert!(md.contains("| three | 4 |\n"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn numeric_columns_right_align() {
        let mut t = Table::new(["label", "speedup", "share"]);
        t.row(["GPT2-M", "3.00x", "50.0%"]);
        t.row(["tensor-delayed", "-1.5", "+2%"]);
        let md = t.to_markdown();
        // `label` has a non-numeric cell → left; the others are numeric
        // (digit after optional sign) → right.
        assert!(md.contains("|---|---:|---:|"), "{md}");
        assert!(md.contains("|   3.00x |"), "{md}");
    }

    #[test]
    fn headers_do_not_affect_alignment() {
        // A numeric-looking header over text cells stays left-aligned.
        let mut t = Table::new(["64B", "x"]);
        t.row(["label", "9"]);
        let md = t.to_markdown();
        assert!(md.contains("|---|---:|"), "{md}");
    }

    #[test]
    fn empty_table_left_aligns() {
        let t = Table::new(["a"]);
        assert!(t.is_empty());
        assert!(t.to_markdown().contains("|---|"));
    }

    #[test]
    fn caption_renders_above_table() {
        let mut t = Table::new(["a"]).captioned("Figure 9 — demo");
        t.row(["1"]);
        let md = t.to_markdown();
        assert!(md.starts_with("*Figure 9 — demo*\n\n| a |\n"), "{md}");
        assert_eq!(t.caption(), Some("Figure 9 — demo"));
    }

    #[test]
    #[should_panic]
    fn mismatched_row_panics() {
        Table::new(["a"]).row(["1", "2"]);
    }

    #[test]
    fn helpers() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(pct(0.5), "50.0%");
    }

    #[test]
    fn ledger_totals_and_fractions() {
        let l =
            PhaseLedger::from_entries([("NPU", Time::from_ns(300)), ("CPU", Time::from_ns(100))]);
        assert_eq!(l.total(), Time::from_ns(400));
        let fr = l.fractions();
        assert_eq!(fr[0], ("NPU", 0.75));
        assert_eq!(fr[1], ("CPU", 0.25));
    }

    #[test]
    fn empty_ledger_is_sane() {
        let l = PhaseLedger::default();
        assert_eq!(l.total(), Time::ZERO);
        assert!(l.fractions().is_empty());
    }

    #[test]
    fn report_round_trips_markdown_and_json() {
        let mut r = Report::new("fig99", "Demo artifact", "Figure 99");
        r.metric("speedup", 4.0);
        r.metric("nan_metric", f64::NAN);
        let mut t = Table::new(["a"]);
        t.row(["1"]);
        r.table(t);
        r.note("Average speedup: 4.0x");
        let md = r.to_markdown();
        assert!(md.starts_with("## Demo artifact (Figure 99)\n"));
        // The uncaptioned table inherited the paper anchor — visible in
        // JSON, deduplicated against the header in markdown.
        assert_eq!(r.tables[0].caption(), Some("Demo artifact (Figure 99)"));
        assert!(!md.contains("*Demo artifact (Figure 99)*"), "{md}");
        assert!(md.contains("Average speedup: 4.0x"));
        let js = r.to_json().to_string();
        assert!(is_well_formed(&js), "{js}");
        assert!(js.contains(r#""id":"fig99""#));
        assert!(js.contains(r#""speedup":4.0"#));
        assert!(js.contains(r#""nan_metric":null"#));
        assert_eq!(r.metric_value("speedup"), Some(4.0));
    }
}
