//! Table formatting and JSON output shared by the experiment binaries.

use serde::Serialize;

/// Formats a simple aligned table.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Serialises a result record to pretty JSON.
pub fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).unwrap_or_else(|e| format!("{{\"error\": \"{e}\"}}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let table = format_table(
            &["system", "latency"],
            &[
                vec!["LIFL".to_string(), "0.76".to_string()],
                vec!["SF".to_string(), "2.28".to_string()],
            ],
        );
        assert!(table.contains("LIFL"));
        assert!(table.contains("0.76"));
        assert!(table.lines().count() >= 4);
    }

    #[test]
    fn json_roundtrip() {
        #[derive(serde::Serialize)]
        struct R {
            x: f64,
        }
        assert!(to_json(&R { x: 1.5 }).contains("1.5"));
    }
}
