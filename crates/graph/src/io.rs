//! Text I/O: a simple edge-list format, MatrixMarket coordinate format,
//! and the 9th-DIMACS-challenge shortest-path format for graphs, and a
//! tab-separated text format for distance matrices ([`write_distances`]).
//!
//! Edge-list format (`.el`):
//! ```text
//! # comment
//! n <vertices>
//! u v w
//! ```
//!
//! MatrixMarket (`.mtx`): `%%MatrixMarket matrix coordinate real symmetric`
//! with 1-based indices, one entry per undirected edge.
//!
//! DIMACS (`.gr`): `p sp <n> <m>` header, `a <u> <v> <w>` arcs (1-based);
//! reciprocal arcs collapse into one undirected edge (minimum weight wins,
//! matching the builder's semantics).

use crate::builder::GraphBuilder;
use crate::csr::Csr;
use crate::dense::DenseDist;
use std::fmt::Write as _;

/// Splits a line into whitespace-separated fields, pairing each with its
/// 1-based byte column — so parse errors can point at the offending token.
fn fields(line: &str) -> impl Iterator<Item = (usize, &str)> {
    line.split_whitespace().map(move |tok| {
        let col = tok.as_ptr() as usize - line.as_ptr() as usize + 1;
        (col, tok)
    })
}

/// Parses one field, reporting the line and column of the offending token
/// on failure (or a plain "missing" error when the line is truncated).
fn parse_field<T: std::str::FromStr>(
    field: Option<(usize, &str)>,
    lineno: usize,
    what: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let (col, tok) = field.ok_or_else(|| format!("line {lineno}: missing {what}"))?;
    tok.parse().map_err(|e| format!("line {lineno}, col {col}: bad {what} `{tok}`: {e}"))
}

/// Parses an edge weight, additionally rejecting NaN and ±∞ — non-finite
/// weights would silently corrupt min-plus arithmetic downstream.
fn parse_weight(field: Option<(usize, &str)>, lineno: usize) -> Result<f64, String> {
    let (col, tok) = field.ok_or_else(|| format!("line {lineno}: missing weight"))?;
    let w: f64 =
        tok.parse().map_err(|e| format!("line {lineno}, col {col}: bad weight `{tok}`: {e}"))?;
    if !w.is_finite() {
        return Err(format!("line {lineno}, col {col}: non-finite weight `{tok}`"));
    }
    Ok(w)
}

/// Serializes a graph to the edge-list format.
pub fn to_edge_list(g: &Csr) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "n {}", g.n());
    for (u, v, w) in g.edges() {
        let _ = writeln!(s, "{u} {v} {w}");
    }
    s
}

/// Parses the edge-list format.
pub fn from_edge_list(text: &str) -> Result<Csr, String> {
    let mut n: Option<usize> = None;
    let mut builder: Option<GraphBuilder> = None;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim_start().is_empty() || line.trim_start().starts_with('#') {
            continue;
        }
        let mut it = fields(line);
        let Some((first_col, first)) = it.next() else { continue };
        if first == "n" {
            if n.is_some() {
                return Err(format!("line {lineno}: duplicate n header"));
            }
            let v: usize = parse_field(it.next(), lineno, "vertex count")?;
            n = Some(v);
            builder = Some(GraphBuilder::new(v));
            continue;
        }
        let b = builder.as_mut().ok_or_else(|| format!("line {lineno}: edge before n header"))?;
        let u: usize = parse_field(Some((first_col, first)), lineno, "endpoint")?;
        let v: usize = parse_field(it.next(), lineno, "endpoint")?;
        let w = parse_weight(it.next(), lineno)?;
        if u >= b.n() || v >= b.n() {
            return Err(format!("line {lineno}: endpoint ({u}, {v}) out of range (n = {})", b.n()));
        }
        b.add_edge(u, v, w);
    }
    builder.map(|b| b.build()).ok_or_else(|| "missing n header".into())
}

/// Serializes a graph to MatrixMarket symmetric coordinate format.
pub fn to_matrix_market(g: &Csr) -> String {
    let mut s = String::from("%%MatrixMarket matrix coordinate real symmetric\n");
    let _ = writeln!(s, "{} {} {}", g.n(), g.n(), g.m());
    for (u, v, w) in g.edges() {
        // MatrixMarket symmetric stores the lower triangle, 1-based.
        let _ = writeln!(s, "{} {} {}", v + 1, u + 1, w);
    }
    s
}

/// Parses MatrixMarket coordinate format (`real`/`integer` × `symmetric`/
/// `general`); entries off the diagonal become undirected edges.
pub fn from_matrix_market(text: &str) -> Result<Csr, String> {
    let mut lines =
        text.lines().enumerate().map(|(i, l)| (i + 1, l)).filter(|(_, l)| !l.trim().is_empty());
    let (_, header) = lines.next().ok_or("empty file")?;
    if !header.starts_with("%%MatrixMarket") {
        return Err("missing MatrixMarket banner".into());
    }
    let h = header.to_ascii_lowercase();
    if !h.contains("coordinate") {
        return Err("only coordinate format is supported".into());
    }
    if !(h.contains("real") || h.contains("integer")) {
        return Err("only real/integer fields are supported".into());
    }
    let mut rest = lines.skip_while(|(_, l)| l.trim_start().starts_with('%'));
    let (size_lineno, size) = rest.next().ok_or("missing size line")?;
    let mut it = fields(size);
    let rows: usize = parse_field(it.next(), size_lineno, "row count")?;
    let cols: usize = parse_field(it.next(), size_lineno, "column count")?;
    let nnz: usize = parse_field(it.next(), size_lineno, "entry count")?;
    if rows != cols {
        return Err("adjacency matrix must be square".into());
    }
    let mut b = GraphBuilder::new(rows);
    let mut seen = 0usize;
    for (lineno, line) in rest {
        if line.trim_start().starts_with('%') {
            continue;
        }
        let mut it = fields(line);
        let i: usize = parse_field(it.next(), lineno, "row index")?;
        let j: usize = parse_field(it.next(), lineno, "column index")?;
        let w: f64 = match it.next() {
            Some(f) => parse_weight(Some(f), lineno)?,
            None => 1.0, // pattern-ish fallback
        };
        if i == 0 || j == 0 || i > rows || j > cols {
            return Err(format!(
                "line {lineno}: entry ({i}, {j}) out of range for a {rows}x{cols} matrix"
            ));
        }
        if i != j {
            b.add_edge(i - 1, j - 1, w);
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(format!("expected {nnz} entries, found {seen}"));
    }
    Ok(b.build())
}

/// Known on-disk formats, selected by file extension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// `.el` — the simple edge-list format.
    EdgeList,
    /// `.mtx` — MatrixMarket coordinate.
    MatrixMarket,
    /// `.gr` — DIMACS shortest-path.
    Dimacs,
}

impl Format {
    /// Picks the format from a path's extension (`.el` fallback).
    pub fn from_path(path: &std::path::Path) -> Format {
        match path.extension().and_then(|e| e.to_str()) {
            Some("mtx") => Format::MatrixMarket,
            Some("gr") => Format::Dimacs,
            _ => Format::EdgeList,
        }
    }
}

/// Reads a graph from a file, picking the format from the extension.
pub fn read_graph(path: impl AsRef<std::path::Path>) -> Result<Csr, String> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    match Format::from_path(path) {
        Format::EdgeList => from_edge_list(&text),
        Format::MatrixMarket => from_matrix_market(&text),
        Format::Dimacs => from_dimacs(&text),
    }
    .map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes a graph to a file, picking the format from the extension.
pub fn write_graph(path: impl AsRef<std::path::Path>, g: &Csr) -> Result<(), String> {
    let path = path.as_ref();
    let text = match Format::from_path(path) {
        Format::EdgeList => to_edge_list(g),
        Format::MatrixMarket => to_matrix_market(g),
        Format::Dimacs => to_dimacs(g),
    };
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Serializes a graph to the DIMACS shortest-path format (each undirected
/// edge written as two reciprocal arcs, the convention of the challenge
/// road networks).
pub fn to_dimacs(g: &Csr) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "c generated by sparse-apsp");
    let _ = writeln!(s, "p sp {} {}", g.n(), 2 * g.m());
    for (u, v, w) in g.edges() {
        let _ = writeln!(s, "a {} {} {w}", u + 1, v + 1);
        let _ = writeln!(s, "a {} {} {w}", v + 1, u + 1);
    }
    s
}

/// Serializes a directed graph to DIMACS (only finite arcs are written;
/// the pattern-symmetrizing `∞` reverses are implicit).
pub fn to_dimacs_directed(g: &crate::DiCsr) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "c generated by sparse-apsp (directed)");
    let arcs: Vec<(usize, usize, f64)> = (0..g.n())
        .flat_map(|u| g.arcs_of(u).filter(|&(_, w)| w.is_finite()).map(move |(v, w)| (u, v, w)))
        .collect();
    let _ = writeln!(s, "p sp {} {}", g.n(), arcs.len());
    for (u, v, w) in arcs {
        let _ = writeln!(s, "a {} {} {w}", u + 1, v + 1);
    }
    s
}

/// Parses DIMACS as a **directed** graph: arcs keep their orientation,
/// the pattern is symmetrized with `∞` reverses — the natural reading of
/// the challenge road networks, which store one-way segments as single
/// arcs.
pub fn from_dimacs_directed(text: &str) -> Result<crate::DiCsr, String> {
    let mut builder: Option<crate::DiGraphBuilder> = None;
    let mut declared = 0usize;
    let mut seen = 0usize;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let mut it = fields(line);
        match it.next() {
            None | Some((_, "c")) => continue,
            Some((_, "p")) => {
                if builder.is_some() {
                    return Err(format!("line {lineno}: duplicate problem line"));
                }
                if it.next().map(|(_, tok)| tok) != Some("sp") {
                    return Err(format!("line {lineno}: expected `p sp`"));
                }
                let n: usize = parse_field(it.next(), lineno, "n")?;
                declared = parse_field(it.next(), lineno, "m")?;
                builder = Some(crate::DiGraphBuilder::new(n));
            }
            Some((_, "a")) => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| format!("line {lineno}: arc before problem line"))?;
                let u: usize = parse_field(it.next(), lineno, "tail")?;
                let v: usize = parse_field(it.next(), lineno, "head")?;
                let w = parse_weight(it.next(), lineno)?;
                if u == 0 || v == 0 || u > b.n() || v > b.n() {
                    return Err(format!(
                        "line {lineno}: arc ({u}, {v}) out of range (n = {})",
                        b.n()
                    ));
                }
                b.add_arc(u - 1, v - 1, w);
                seen += 1;
            }
            Some((col, other)) => {
                return Err(format!("line {lineno}, col {col}: unknown record type {other:?}"))
            }
        }
    }
    if seen != declared {
        return Err(format!("expected {declared} arcs, found {seen}"));
    }
    builder.map(|b| b.build()).ok_or_else(|| "missing problem line".into())
}

/// Parses the DIMACS shortest-path format. Arcs are undirected-ized (the
/// builder keeps the minimum weight of reciprocal/duplicate arcs).
pub fn from_dimacs(text: &str) -> Result<Csr, String> {
    let mut builder: Option<GraphBuilder> = None;
    let mut declared_arcs = 0usize;
    let mut seen_arcs = 0usize;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let mut it = fields(line);
        match it.next() {
            None | Some((_, "c")) => continue,
            Some((_, "p")) => {
                if builder.is_some() {
                    return Err(format!("line {lineno}: duplicate problem line"));
                }
                if it.next().map(|(_, tok)| tok) != Some("sp") {
                    return Err(format!("line {lineno}: expected `p sp`"));
                }
                let n: usize = parse_field(it.next(), lineno, "n")?;
                declared_arcs = parse_field(it.next(), lineno, "m")?;
                builder = Some(GraphBuilder::new(n));
            }
            Some((_, "a")) => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| format!("line {lineno}: arc before problem line"))?;
                let u: usize = parse_field(it.next(), lineno, "tail")?;
                let v: usize = parse_field(it.next(), lineno, "head")?;
                let w = parse_weight(it.next(), lineno)?;
                if u == 0 || v == 0 || u > b.n() || v > b.n() {
                    return Err(format!(
                        "line {lineno}: arc ({u}, {v}) out of range (n = {})",
                        b.n()
                    ));
                }
                b.add_edge(u - 1, v - 1, w);
                seen_arcs += 1;
            }
            Some((col, other)) => {
                return Err(format!("line {lineno}, col {col}: unknown record type {other:?}"))
            }
        }
    }
    if seen_arcs != declared_arcs {
        return Err(format!("expected {declared_arcs} arcs, found {seen_arcs}"));
    }
    builder.map(|b| b.build()).ok_or_else(|| "missing problem line".into())
}

/// Rows per formatting task of [`write_distances`].
const ROW_BLOCK: usize = 16;

/// Blocks each worker formats per window of [`write_distances`].
const BLOCKS_PER_WORKER: usize = 4;

/// Writes a distance matrix as text: one line per row, entries joined by
/// `\t`, `inf` for unreachable pairs and Rust's shortest round-trip
/// decimal (`{}`) for everything else.
///
/// Blocks of `ROW_BLOCK` rows are formatted by `apsp_par` workers and
/// written in row order, a window of `BLOCKS_PER_WORKER` blocks per worker
/// at a time, so the text held in memory is O(window · n), never the whole
/// matrix. The bytes do not depend on the thread count. Flushes `w` before
/// returning, so a buffered writer's error surfaces here.
pub fn write_distances(w: impl std::io::Write, dist: &DenseDist) -> std::io::Result<()> {
    write_distances_in_windows(w, dist, apsp_par::num_threads() * BLOCKS_PER_WORKER)
}

/// [`write_distances`] with a window of `window` row blocks.
fn write_distances_in_windows(
    mut w: impl std::io::Write,
    dist: &DenseDist,
    window: usize,
) -> std::io::Result<()> {
    let n = dist.n();
    let blocks: Vec<usize> = (0..n.div_ceil(ROW_BLOCK)).collect();
    for window in blocks.chunks(window) {
        let texts = apsp_par::par_map(window, |&b| {
            format_rows(dist, b * ROW_BLOCK..((b + 1) * ROW_BLOCK).min(n))
        });
        for text in &texts {
            w.write_all(text.as_bytes())?;
        }
    }
    w.flush()
}

/// Formats rows `rows` of `dist` as [`write_distances`] lays them out.
fn format_rows(dist: &DenseDist, rows: std::ops::Range<usize>) -> String {
    let mut s = String::new();
    for i in rows {
        for (j, d) in dist.row(i).iter().enumerate() {
            if j > 0 {
                s.push('\t');
            }
            if d.is_infinite() {
                s.push_str("inf");
            } else {
                let _ = write!(s, "{d}");
            }
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{self, WeightKind};

    #[test]
    fn file_roundtrip_all_formats() {
        let g = generators::grid2d(3, 4, WeightKind::Integer { max: 5 }, 1);
        let dir = std::env::temp_dir().join(format!("apsp-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["g.el", "g.mtx", "g.gr"] {
            let path = dir.join(name);
            write_graph(&path, &g).unwrap();
            let h = read_graph(&path).unwrap();
            assert_eq!(g, h, "{name}");
        }
        assert!(read_graph(dir.join("missing.el")).is_err());
        assert_eq!(Format::from_path(std::path::Path::new("x.mtx")), Format::MatrixMarket);
        assert_eq!(Format::from_path(std::path::Path::new("x.gr")), Format::Dimacs);
        assert_eq!(Format::from_path(std::path::Path::new("x")), Format::EdgeList);
    }

    #[test]
    fn dimacs_roundtrip() {
        let g = generators::grid2d(4, 5, WeightKind::Integer { max: 9 }, 2);
        let text = to_dimacs(&g);
        assert!(text.contains("p sp 20"));
        let h = from_dimacs(&text).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn dimacs_directed_roundtrip_preserves_orientation() {
        let mut b = crate::DiGraphBuilder::new(3);
        b.add_arc(0, 1, 2.0);
        b.add_arc(1, 0, 5.0);
        b.add_arc(1, 2, 1.0); // one-way
        let g = b.build();
        let text = to_dimacs_directed(&g);
        let h = from_dimacs_directed(&text).unwrap();
        assert_eq!(g, h);
        assert_eq!(h.arc_weight(1, 2), Some(1.0));
        assert_eq!(h.arc_weight(2, 1), Some(f64::INFINITY));
    }

    #[test]
    fn dimacs_directed_errors() {
        assert!(from_dimacs_directed("").is_err());
        assert!(from_dimacs_directed("p sp 2 1\na 0 1 1\n").is_err());
        assert!(from_dimacs_directed("p sp 2 2\na 1 2 1\n").is_err());
    }

    #[test]
    fn dimacs_asymmetric_arcs_keep_minimum() {
        let text = "c road\np sp 2 2\na 1 2 5\na 2 1 3\n";
        let g = from_dimacs(text).unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(3.0));
    }

    #[test]
    fn dimacs_errors() {
        assert!(from_dimacs("").is_err());
        assert!(from_dimacs("a 1 2 3\n").is_err());
        assert!(from_dimacs("p max 2 0\n").is_err());
        assert!(from_dimacs("p sp 2 1\n").is_err()); // missing arc
        assert!(from_dimacs("p sp 2 1\na 1 3 1\n").is_err()); // out of range
        assert!(from_dimacs("p sp 2 1\nq 1 2 1\n").is_err()); // bad record
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = generators::grid2d(3, 3, WeightKind::Integer { max: 5 }, 1);
        let text = to_edge_list(&g);
        let h = from_edge_list(&text).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn edge_list_with_comments() {
        let g = from_edge_list("# hi\nn 3\n0 1 2.5\n\n# more\n1 2 1.0\n").unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.edge_weight(0, 1), Some(2.5));
    }

    #[test]
    fn edge_list_errors() {
        assert!(from_edge_list("").is_err());
        assert!(from_edge_list("0 1 1.0\n").is_err());
        assert!(from_edge_list("n 2\n0 5 1.0\n").is_err());
        assert!(from_edge_list("n 2\n0 1\n").is_err());
        assert!(from_edge_list("n 2\nn 2\n").is_err());
    }

    #[test]
    fn matrix_market_roundtrip() {
        let g = generators::connected_gnp(12, 0.2, WeightKind::Integer { max: 9 }, 4);
        let text = to_matrix_market(&g);
        let h = from_matrix_market(&text).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn matrix_market_errors() {
        assert!(from_matrix_market("").is_err());
        assert!(from_matrix_market("junk\n1 1 0\n").is_err());
        assert!(from_matrix_market("%%MatrixMarket matrix array real general\n2 2\n").is_err());
        assert!(
            from_matrix_market("%%MatrixMarket matrix coordinate real symmetric\n2 3 0\n").is_err()
        );
        // wrong count
        assert!(from_matrix_market(
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n2 1 1.0\n"
        )
        .is_err());
    }

    #[test]
    fn non_finite_weights_are_rejected_everywhere() {
        for bad in ["nan", "NaN", "inf", "-inf", "infinity"] {
            assert!(from_edge_list(&format!("n 2\n0 1 {bad}\n")).is_err(), "el {bad}");
            assert!(from_dimacs(&format!("p sp 2 1\na 1 2 {bad}\n")).is_err(), "gr {bad}");
            assert!(
                from_dimacs_directed(&format!("p sp 2 1\na 1 2 {bad}\n")).is_err(),
                "gr.d {bad}"
            );
            assert!(
                from_matrix_market(&format!(
                    "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 {bad}\n"
                ))
                .is_err(),
                "mtx {bad}"
            );
        }
        let err = from_edge_list("n 2\n0 1 nan\n").unwrap_err();
        assert!(err.contains("line 2") && err.contains("non-finite"), "{err}");
    }

    #[test]
    fn dimacs_directed_rejects_fractional_and_nan_endpoints() {
        // endpoints must be integers — `1.9` or `nan` must not silently truncate
        assert!(from_dimacs_directed("p sp 2 1\na 1.9 2 1\n").is_err());
        assert!(from_dimacs_directed("p sp 2 1\na nan 2 1\n").is_err());
        assert!(from_dimacs_directed("p sp 2 1\na 1 2.5 1\n").is_err());
    }

    #[test]
    fn truncated_lines_are_reported_with_context() {
        let err = from_dimacs("p sp 2 1\na 1 2\n").unwrap_err();
        assert!(err.contains("line 2") && err.contains("weight"), "{err}");
        let err = from_dimacs_directed("p sp 2 1\na 1\n").unwrap_err();
        assert!(err.contains("line 2") && err.contains("head"), "{err}");
        let err =
            from_matrix_market("%%MatrixMarket matrix coordinate real symmetric\n2\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = from_edge_list("n 2\n0\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn errors_carry_column_numbers() {
        let err = from_dimacs("p sp 2 1\na 1 x 1\n").unwrap_err();
        assert!(err.contains("line 2, col 5"), "{err}");
        let err = from_edge_list("n 2\n0 1 bogus\n").unwrap_err();
        assert!(err.contains("line 2, col 5"), "{err}");
        let err = from_dimacs_directed("p sp 2 1\nz 1 2 1\n").unwrap_err();
        assert!(err.contains("line 2, col 1"), "{err}");
    }

    #[test]
    fn out_of_range_endpoints_name_the_bounds() {
        let err = from_dimacs("p sp 2 1\na 1 3 1\n").unwrap_err();
        assert!(err.contains("(1, 3)") && err.contains("n = 2"), "{err}");
        let err = from_edge_list("n 2\n0 5 1.0\n").unwrap_err();
        assert!(err.contains("(0, 5)"), "{err}");
    }

    #[test]
    fn matrix_market_ignores_diagonal() {
        let g = from_matrix_market(
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 5.0\n2 1 3.0\n",
        )
        .unwrap();
        assert_eq!(g.m(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(3.0));
    }

    /// The serial writer `write_distances` replaced: the byte-for-byte
    /// reference.
    fn distances_tsv(dist: &DenseDist) -> String {
        let mut s = String::new();
        for i in 0..dist.n() {
            for j in 0..dist.n() {
                if j > 0 {
                    s.push('\t');
                }
                let d = dist.get(i, j);
                if d.is_infinite() {
                    s.push_str("inf");
                } else {
                    let _ = write!(s, "{d}");
                }
            }
            s.push('\n');
        }
        s
    }

    /// Every awkward value first, then random weights, cycled over `n × n`.
    fn awkward_matrix(n: usize, seed: u64) -> DenseDist {
        use rand::{Rng, SeedableRng};
        let special = [
            crate::INF,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            5e-324,
            1e-7,
            1e16,
            1e21,
            f64::MAX,
            f64::NAN,
            0.1 + 0.2,
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data = (0..n * n)
            .map(|k| match special.get(k % (2 * special.len())) {
                Some(&v) => v,
                None => rng.random_range(0.0..1000.0),
            })
            .collect();
        DenseDist::from_raw(n, data)
    }

    #[test]
    fn distances_are_byte_identical_to_the_serial_writer() {
        // up to 7 blocks through windows of 1..=3 blocks: full and ragged
        // windows, ragged last blocks
        for n in [0, 1, 2, ROW_BLOCK, ROW_BLOCK + 1, 6 * ROW_BLOCK + 3] {
            let dist = awkward_matrix(n, n as u64);
            let want = distances_tsv(&dist).into_bytes();
            let mut out = Vec::new();
            write_distances(&mut out, &dist).unwrap();
            assert_eq!(out, want, "n = {n}");
            for window in 1..=3 {
                let mut out = Vec::new();
                write_distances_in_windows(&mut out, &dist, window).unwrap();
                assert_eq!(out, want, "n = {n}, window = {window}");
            }
        }
    }

    /// Accepts `budget` bytes, then fails every write; flush fails when
    /// `flush_fails`.
    struct FailingWriter {
        budget: usize,
        flush_fails: bool,
    }

    impl std::io::Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.budget == 0 {
                return Err(std::io::Error::other("disk full"));
            }
            let k = buf.len().min(self.budget);
            self.budget -= k;
            Ok(k)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            if self.flush_fails {
                return Err(std::io::Error::other("flush refused"));
            }
            Ok(())
        }
    }

    #[test]
    fn failing_writes_return_the_io_error() {
        let dist = awkward_matrix(3 * ROW_BLOCK, 11);
        for budget in [0, 1, 100, 5000] {
            let w = FailingWriter { budget, flush_fails: false };
            let err = write_distances_in_windows(w, &dist, 1).unwrap_err();
            assert_eq!(err.to_string(), "disk full", "budget = {budget}");
        }
        let w = FailingWriter { budget: usize::MAX, flush_fails: true };
        let err = write_distances(w, &dist).unwrap_err();
        assert_eq!(err.to_string(), "flush refused");
        let w = FailingWriter { budget: 0, flush_fails: false };
        write_distances(w, &DenseDist::from_raw(0, Vec::new())).unwrap();
    }
}
