//! Shared helpers for the benchmark harness.
//!
//! Every bench in `benches/` regenerates one experiment of DESIGN.md's
//! per-experiment index: it first prints the paper-style rows (round
//! counts, fitted exponents, certificate sizes — the paper's metrics,
//! which are deterministic), then registers Criterion timing groups for
//! the wall-clock view.

#![forbid(unsafe_code)]

use cc_core::fit_exponent;

/// Print a titled, aligned table to stdout (captured in bench logs).
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: Vec<String>| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(header.iter().map(|s| s.to_string()).collect())
    );
    for row in rows {
        println!("{}", fmt_row(row.clone()));
    }
}

/// Fit an exponent and render a `δ̂ = …` summary string. Degenerate
/// sample sets render the typed fit error instead of a fit.
pub fn exponent_summary(samples: &[(usize, usize)], paper_bound: &str) -> String {
    match fit_exponent(samples) {
        Ok(fit) => format!(
            "fitted δ̂ = {:.3} (R² = {:.3}); paper bound δ ≤ {paper_bound}",
            fit.delta, fit.r_squared
        ),
        Err(e) => format!("exponent fit failed: {e}; paper bound δ ≤ {paper_bound}"),
    }
}

/// Standard seeds so the bench workloads are replayable.
pub const SEED: u64 = 20180705;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponent_summary_formats() {
        let s = exponent_summary(&[(16, 4), (64, 8), (256, 16)], "1/2");
        assert!(s.contains("δ̂ = 0.5"));
        assert!(s.contains("1/2"));
    }
}
