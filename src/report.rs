//! Table printing for the paper-figure reproduction checks.
//!
//! Shared helpers for the bench binaries that regenerate every figure
//! and table of the paper: one binary per experiment under `benches/`,
//! named after it (`fig5_freq_area`, `table1_router_comparison`, …), each
//! printing its table with `[PASS]`/`[FAIL]` verdict lines.

use std::fmt::Display;

/// Prints a table header followed by an underline, for the figure
/// regenerators' plain-text output.
pub fn header(title: &str, columns: &[&str]) {
    println!("\n== {title} ==");
    let row = columns.join(" | ");
    println!("{row}");
    println!("{}", "-".repeat(row.len()));
}

/// Prints one table row from display-able cells.
pub fn row<D: Display>(cells: &[D]) {
    println!(
        "{}",
        cells
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(" | ")
    );
}

/// Prints a paper-vs-measured checkline and panics on failure so that
/// `cargo bench` fails loudly when a reproduction regresses.
///
/// # Panics
///
/// Panics if `ok` is false.
pub fn check(label: &str, ok: bool, detail: impl Display) {
    let mark = if ok { "PASS" } else { "FAIL" };
    println!("[{mark}] {label}: {detail}");
    assert!(ok, "reproduction check failed: {label}: {detail}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_passes_quietly() {
        check("smoke", true, "fine");
    }

    #[test]
    #[should_panic(expected = "reproduction check failed")]
    fn check_fails_loudly() {
        check("smoke", false, "broken");
    }
}
