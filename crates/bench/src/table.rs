//! Markdown table rendering for figures and tables.

use core::fmt;

/// One reproduced table or figure, as rows of formatted cells.
#[derive(Debug, Clone)]
pub struct FigTable {
    /// Identifier, e.g. "Figure 6".
    pub id: String,
    /// Title line.
    pub title: String,
    /// Explanation shown under the title.
    pub caption: String,
    /// Column headers (first column is the row label).
    pub columns: Vec<String>,
    /// Rows: label plus one cell per remaining column.
    pub rows: Vec<Vec<String>>,
}

impl FigTable {
    /// Creates an empty table with headers.
    #[must_use]
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        caption: impl Into<String>,
        columns: Vec<String>,
    ) -> Self {
        FigTable {
            id: id.into(),
            title: title.into(),
            caption: caption.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table as GitHub-flavoured markdown.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}: {}\n\n", self.id, self.title));
        if !self.caption.is_empty() {
            out.push_str(&format!("{}\n\n", self.caption));
        }
        out.push_str(&format!("| {} |\n", self.columns.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.columns.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out.push('\n');
        out
    }
}

impl fmt::Display for FigTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_markdown())
    }
}

impl pmacc_telemetry::ToJson for FigTable {
    /// The table verbatim: id, title, caption, column headers and the
    /// formatted row cells (strings, exactly as rendered to markdown).
    fn to_json(&self) -> pmacc_telemetry::Json {
        use pmacc_telemetry::Json;
        Json::obj([
            ("id", self.id.to_json()),
            ("title", self.title.to_json()),
            ("caption", self.caption.to_json()),
            ("columns", self.columns.to_json()),
            ("rows", self.rows.to_json()),
        ])
    }
}

/// Formats a normalized value to three decimals.
#[must_use]
pub fn norm(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_markdown() {
        let mut t = FigTable::new(
            "Figure 0",
            "demo",
            "caption",
            vec!["w".into(), "a".into()],
        );
        t.push_row(vec!["x".into(), "1.0".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### Figure 0: demo"));
        assert!(md.contains("| w | a |"));
        assert!(md.contains("| x | 1.0 |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = FigTable::new("F", "t", "", vec!["a".into()]);
        t.push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn norm_formats() {
        assert_eq!(norm(0.98765), "0.988");
    }
}
