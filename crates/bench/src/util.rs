//! Plain-text table rendering and small helpers for experiment output.

use std::time::Duration;

/// Render an ASCII table: header row plus data rows, columns padded.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| -> String {
        let mut s = String::from("|");
        for (i, c) in cells.iter().enumerate().take(ncols) {
            s.push_str(&format!(" {:<w$} |", c, w = widths[i]));
        }
        s
    };
    let sep = {
        let mut s = String::from("+");
        for w in &widths {
            s.push_str(&"-".repeat(w + 2));
            s.push('+');
        }
        s
    };
    let mut out = String::new();
    out.push_str(&sep);
    out.push('\n');
    out.push_str(&line(
        &header.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    ));
    out.push('\n');
    out.push_str(&sep);
    out.push('\n');
    for row in rows {
        out.push_str(&line(row));
        out.push('\n');
    }
    out.push_str(&sep);
    out.push('\n');
    out
}

/// Milliseconds with one decimal.
pub fn ms(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1000.0)
}

/// Average of a duration slice in milliseconds.
pub fn avg_ms(ds: &[Duration]) -> f64 {
    if ds.is_empty() {
        return 0.0;
    }
    ds.iter().map(|d| d.as_secs_f64()).sum::<f64>() / ds.len() as f64 * 1000.0
}

/// Write a results file, logging (not failing) on IO errors so a
/// read-only working directory never aborts an experiment run.
pub fn write_results(path: &str, json: &str) {
    match std::fs::write(path, json) {
        Ok(()) => eprintln!("results written to {path}"),
        Err(e) => eprintln!("warning: cannot write {path}: {e}"),
    }
}

/// A crude text histogram: bucket labels and counts rendered with `#`.
pub fn histogram(title: &str, buckets: &[(String, usize)]) -> String {
    let max = buckets.iter().map(|(_, c)| *c).max().unwrap_or(1).max(1);
    let width = 40usize;
    let mut out = format!("{title}\n");
    for (label, count) in buckets {
        let bar = "#".repeat((count * width).div_ceil(max).min(width));
        out.push_str(&format!("  {label:>12} | {bar} {count}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["alpha".into(), "1".into()],
                vec!["b".into(), "10000".into()],
            ],
        );
        assert!(t.contains("| alpha"));
        assert!(t.contains("| 10000 |"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 6);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    fn histogram_renders() {
        let h = histogram("Iterations", &[("1-10".into(), 5), ("11-20".into(), 1)]);
        assert!(h.contains("1-10"));
        assert!(h.contains("#"));
    }

    #[test]
    fn ms_format() {
        assert_eq!(ms(Duration::from_millis(1500)), "1500.0");
        assert_eq!(
            avg_ms(&[Duration::from_millis(10), Duration::from_millis(20)]),
            15.0
        );
    }
}
