//! Output checks: distances against the Dijkstra oracle, bit digests, and
//! parsing the CLI's distances file back.

use apsp_graph::{DenseDist, INF};

/// Tolerance of every oracle comparison.
pub const TOL: f64 = 1e-9;

/// `Ok` when `dist` matches the oracle entry for entry within [`TOL`].
///
/// # Errors
/// The first mismatching entry.
pub fn against_oracle(dist: &DenseDist, oracle: &DenseDist) -> Result<(), String> {
    if dist.n() != oracle.n() {
        return Err(format!("{} vertices, the oracle has {}", dist.n(), oracle.n()));
    }
    match dist.first_mismatch(oracle, TOL) {
        None => Ok(()),
        Some((i, j, a, b)) => Err(format!("distance ({i},{j}) is {a}, the oracle says {b}")),
    }
}

/// FNV-1a over the bit patterns of every entry: equal digests mean
/// `to_bits`-equal matrices (up to hash collisions).
pub fn digest(dist: &DenseDist) -> u64 {
    dist.as_slice().iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        x.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    })
}

/// `true` when the two matrices are `to_bits`-equal.
pub fn bit_equal(a: &DenseDist, b: &DenseDist) -> bool {
    a.n() == b.n() && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Parses the CLI's `--distances` TSV (`inf` for unreachable pairs).
///
/// # Errors
/// A malformed entry or a row of the wrong length.
pub fn parse_tsv(text: &str, n: usize) -> Result<DenseDist, String> {
    let mut data = Vec::with_capacity(n * n);
    for (row, line) in text.lines().enumerate() {
        let before = data.len();
        for field in line.split('\t') {
            data.push(match field {
                "inf" => INF,
                f => f.parse().map_err(|e| format!("row {row}: bad entry {f:?}: {e}"))?,
            });
        }
        if data.len() - before != n {
            return Err(format!("row {row} has {} entries, expected {n}", data.len() - before));
        }
    }
    if data.len() != n * n {
        return Err(format!("{} rows, expected {n}", data.len() / n.max(1)));
    }
    Ok(DenseDist::from_raw(n, data))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(v: &[f64]) -> DenseDist {
        DenseDist::from_raw(2, v.to_vec())
    }

    #[test]
    fn tsv_round_trips_with_inf() {
        let d = parse_tsv("0\t1.5\ninf\t0\n", 2).expect("well-formed");
        assert!(bit_equal(&d, &m(&[0.0, 1.5, INF, 0.0])));
        assert!(parse_tsv("0\t1\n0\n", 2).is_err());
        assert!(parse_tsv("0\tx\n0\t0\n", 2).is_err());
        assert!(parse_tsv("0\t1\n", 2).is_err());
    }

    #[test]
    fn oracle_check_uses_the_tolerance() {
        let oracle = m(&[0.0, 1.0, 1.0, 0.0]);
        assert!(against_oracle(&m(&[0.0, 1.0 + 1e-12, 1.0, 0.0]), &oracle).is_ok());
        assert!(against_oracle(&m(&[0.0, 1.1, 1.0, 0.0]), &oracle).is_err());
    }

    #[test]
    fn digest_sees_single_bits() {
        let a = m(&[0.0, 1.0, 1.0, 0.0]);
        let b = m(&[0.0, f64::from_bits(1.0f64.to_bits() + 1), 1.0, 0.0]);
        assert_ne!(digest(&a), digest(&b));
        assert!(!bit_equal(&a, &b));
        assert_eq!(digest(&a), digest(&a.clone()));
    }
}
