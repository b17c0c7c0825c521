//! Plain-text rendering of count data for terminal inspection.

use crate::counts::CountMatrix;

/// Renders a count field as a compact ASCII heat map (one character per
/// cell, darker = denser), with the origin at the *bottom*-left so north
/// is up. Intended for terminal inspection, not precision.
pub fn ascii_heatmap(field: &CountMatrix) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    let max = field.as_slice().iter().cloned().fold(0.0, f64::max);
    let side = field.side() as usize;
    let spec = field.spec();
    let mut out = String::with_capacity((side + 1) * side);
    for row in (0..side).rev() {
        for col in 0..side {
            let v = field.get(spec.cell_at(row, col));
            let idx = if max <= 0.0 {
                0
            } else {
                (((v / max) * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1)
            };
            out.push(RAMP[idx] as char);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heatmap_shape_and_orientation() {
        // Mass in the top-right cell (row 1, col 1 of a 2×2 grid) must
        // appear on the FIRST output line (north up), last column.
        let field = CountMatrix::from_vec(2, vec![0.0, 0.0, 0.0, 9.0]).unwrap();
        let map = ascii_heatmap(&field);
        let lines: Vec<&str> = map.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], " @");
        assert_eq!(lines[1], "  ");
    }

    #[test]
    fn heatmap_handles_all_zero_fields() {
        let map = ascii_heatmap(&CountMatrix::zeros(3));
        assert_eq!(map, "   \n   \n   \n");
    }
}
