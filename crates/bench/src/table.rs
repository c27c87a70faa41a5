//! Series container and table/CSV output for experiment results.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// One plotted line: a name plus `(x, y)` points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// Data points in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a named series.
    pub fn new(name: impl Into<String>) -> Self {
        Series { name: name.into(), points: Vec::new() }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The final y value (None when empty).
    pub fn last_y(&self) -> Option<f64> {
        self.points.last().map(|&(_, y)| y)
    }
}

/// One table of a figure: the id its CSV is written under, its title,
/// its x label and its series.
#[derive(Debug, Clone)]
pub struct Table {
    /// File stem under `results/`, such as `fig2a`.
    pub id: String,
    /// Printed heading.
    pub title: String,
    /// Header of the x column.
    pub x_label: String,
    /// The plotted lines, sharing one x grid.
    pub series: Vec<Series>,
}

impl Table {
    /// A table of `series` under `id`.
    pub fn new(id: &str, title: &str, x_label: &str, series: Vec<Series>) -> Self {
        Table { id: id.into(), title: title.into(), x_label: x_label.into(), series }
    }

    /// The series whose name is `name`.
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }
}

/// Renders aligned columns: the x column followed by one column per
/// series, matching rows by x (series must share their x grid).
pub fn render_table(title: &str, x_label: &str, series: &[Series]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let _ = write!(out, "{x_label:>14}");
    for s in series {
        let _ = write!(out, "  {:>18}", s.name);
    }
    let _ = writeln!(out);
    let rows = series.iter().map(|s| s.points.len()).max().unwrap_or(0);
    for i in 0..rows {
        let x = series
            .iter()
            .find_map(|s| s.points.get(i).map(|&(x, _)| x))
            .unwrap_or(f64::NAN);
        let _ = write!(out, "{x:>14.4}");
        for s in series {
            match s.points.get(i) {
                Some(&(_, y)) => {
                    let _ = write!(out, "  {y:>18.6}");
                }
                None => {
                    let _ = write!(out, "  {:>18}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Prints the table and writes `results/<id>.csv`.
pub fn emit(table: &Table) {
    let Table { id, title, x_label, series } = table;
    println!("{}", render_table(title, x_label, series));
    let mut csv = String::new();
    let _ = write!(csv, "{x_label}");
    for s in series {
        let _ = write!(csv, ",{}", s.name.replace(',', ";"));
    }
    let _ = writeln!(csv);
    let rows = series.iter().map(|s| s.points.len()).max().unwrap_or(0);
    for i in 0..rows {
        let x = series
            .iter()
            .find_map(|s| s.points.get(i).map(|&(x, _)| x))
            .unwrap_or(f64::NAN);
        let _ = write!(csv, "{x}");
        for s in series {
            match s.points.get(i) {
                Some(&(_, y)) => {
                    let _ = write!(csv, ",{y}");
                }
                None => {
                    let _ = write!(csv, ",");
                }
            }
        }
        let _ = writeln!(csv);
    }
    let dir = Path::new("results");
    if fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{id}.csv"));
        if let Err(e) = fs::write(&path, csv) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("[written {}]", path.display());
        }
    }
}

/// Spearman rank correlation between two equally long value slices — used
/// to quantify how well `M_merge` tracks `J_merge` (Fig. 1).
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "spearman: length mismatch");
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let rank = |v: &[f64]| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&i, &j| v[i].partial_cmp(&v[j]).expect("NaN in spearman"));
        let mut r = vec![0.0; v.len()];
        for (pos, &i) in idx.iter().enumerate() {
            r[i] = pos as f64;
        }
        r
    };
    let (ra, rb) = (rank(a), rank(b));
    let mean = (n as f64 - 1.0) / 2.0;
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for i in 0..n {
        let (x, y) = (ra[i] - mean, rb[i] - mean);
        num += x * y;
        da += x * x;
        db += y * y;
    }
    num / (da.sqrt() * db.sqrt()).max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_accumulates() {
        let mut s = Series::new("a");
        s.push(1.0, 2.0);
        s.push(2.0, 3.0);
        assert_eq!(s.last_y(), Some(3.0));
        assert_eq!(s.points.len(), 2);
    }

    #[test]
    fn table_renders_all_columns() {
        let mut a = Series::new("alpha");
        a.push(1.0, 10.0);
        let mut b = Series::new("beta");
        b.push(1.0, 20.0);
        let t = render_table("T", "x", &[a, b]);
        assert!(t.contains("alpha"));
        assert!(t.contains("beta"));
        assert!(t.contains("10.0"));
        assert!(t.contains("20.0"));
    }

    #[test]
    fn ragged_series_render_dashes() {
        let mut a = Series::new("a");
        a.push(1.0, 1.0);
        a.push(2.0, 2.0);
        let mut b = Series::new("b");
        b.push(1.0, 9.0);
        let t = render_table("T", "x", &[a, b]);
        assert!(t.lines().last().unwrap().contains('-'));
    }

    #[test]
    fn spearman_known_values() {
        assert!((spearman(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]) - 1.0).abs() < 1e-12);
        assert!((spearman(&[1.0, 2.0, 3.0], &[30.0, 20.0, 10.0]) + 1.0).abs() < 1e-12);
        let r = spearman(&[1.0, 2.0, 3.0, 4.0], &[1.0, 3.0, 2.0, 4.0]);
        assert!(r > 0.5 && r < 1.0, "r {r}");
    }
}
