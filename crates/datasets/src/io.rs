//! Plain-text dataset IO, so real data can be swapped in for the
//! synthetic replicas.
//!
//! Format (whitespace-separated, `#` comments):
//!
//! ```text
//! # edges: src dst raw_weight
//! e 0 2 1.0
//! # initial opinion of user v about candidate q: q v value
//! b 0 2 0.6
//! # stubbornness: v value
//! d 2 0.5
//! ```

use crate::replicas::Dataset;
use std::io::{BufRead, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;
use vom_diffusion::{Instance, OpinionMatrix};
use vom_graph::{GraphBuilder, WeightTransform};

/// IO errors: IO itself or malformed content.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// A malformed line, with its 1-based number.
    Parse {
        /// 1-based line number of the malformed line.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// Inconsistent content (e.g. opinions out of range).
    Invalid(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse { line, message } => write!(f, "line {line}: {message}"),
            IoError::Invalid(m) => write!(f, "invalid dataset: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Writes a dataset (graph weights are the *normalized* ones; loading
/// re-normalizes, which is idempotent).
pub fn save_dataset(ds: &Dataset, path: &Path) -> Result<(), IoError> {
    let f = std::fs::File::create(path)?;
    let mut w = BufWriter::new(f);
    let inst = &ds.instance;
    let g = inst.graph_of(0);
    writeln!(w, "# vom dataset: {}", ds.name)?;
    writeln!(w, "n {} {}", inst.num_nodes(), inst.num_candidates())?;
    for name in &ds.candidate_names {
        writeln!(w, "c {}", name)?;
    }
    for v in g.nodes() {
        for (u, weight) in g.in_entries(v) {
            writeln!(w, "e {u} {v} {weight}")?;
        }
    }
    for q in 0..inst.num_candidates() {
        for (v, b) in inst.candidate(q).initial.iter().enumerate() {
            writeln!(w, "b {q} {v} {b}")?;
        }
    }
    for (v, d) in inst.candidate(0).stubbornness.iter().enumerate() {
        writeln!(w, "d {v} {d}")?;
    }
    Ok(())
}

/// Loads a dataset previously written with [`save_dataset`] (or authored
/// by hand for real data). All candidates share the stubbornness vector
/// and graph, mirroring the paper's experimental setup.
pub fn load_dataset(path: &Path) -> Result<Dataset, IoError> {
    let f = std::fs::File::open(path)?;
    let reader = std::io::BufReader::new(f);
    let mut n = 0usize;
    let mut r = 0usize;
    let mut names = Vec::new();
    let mut builder: Option<GraphBuilder> = None;
    let mut opinions: Vec<Vec<f64>> = Vec::new();
    let mut stubbornness: Vec<f64> = Vec::new();

    let parse_err = |line: usize, message: &str| IoError::Parse {
        line,
        message: message.to_string(),
    };

    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = i + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let tag = parts.next().expect("non-empty line");
        match tag {
            "n" => {
                if builder.is_some() {
                    return Err(parse_err(lineno, "repeated 'n' header"));
                }
                n = field(&mut parts, lineno)?;
                r = field(&mut parts, lineno)?;
                stubbornness = zeroed(n)?;
                opinions = Vec::new();
                opinions
                    .try_reserve_exact(r)
                    .map_err(|e| IoError::Invalid(format!("{r} candidates: {e}")))?;
                for _ in 0..r {
                    opinions.push(zeroed(n)?);
                }
                builder = Some(GraphBuilder::new(n));
            }
            "c" => names.push(parts.collect::<Vec<_>>().join(" ")),
            "e" => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| parse_err(lineno, "edge before header"))?;
                let u = field(&mut parts, lineno)?;
                let v = field(&mut parts, lineno)?;
                let w = field(&mut parts, lineno)?;
                b.add_edge(u, v, w);
            }
            "b" => {
                let q: usize = field(&mut parts, lineno)?;
                let v: usize = field(&mut parts, lineno)?;
                let val = field(&mut parts, lineno)?;
                if q >= r || v >= n {
                    return Err(parse_err(lineno, "opinion index out of range"));
                }
                opinions[q][v] = val;
            }
            "d" => {
                let v: usize = field(&mut parts, lineno)?;
                let val = field(&mut parts, lineno)?;
                if v >= n {
                    return Err(parse_err(lineno, "stubbornness index out of range"));
                }
                stubbornness[v] = val;
            }
            other => return Err(parse_err(lineno, &format!("unknown tag '{other}'"))),
        }
    }
    let builder = builder.ok_or_else(|| IoError::Invalid("missing 'n' header".into()))?;
    let graph = Arc::new(
        builder
            .build_with(WeightTransform::Raw)
            .map_err(|e| IoError::Invalid(e.to_string()))?,
    );
    let initial =
        OpinionMatrix::from_rows(opinions).map_err(|e| IoError::Invalid(e.to_string()))?;
    let instance = Instance::shared(graph, initial, stubbornness)
        .map_err(|e| IoError::Invalid(e.to_string()))?;
    Ok(Dataset {
        name: "loaded",
        instance,
        default_target: 0,
        candidate_names: names,
    })
}

/// Parses the next whitespace-separated field of line `line`: counts
/// and indexes as unsigned integers, values as `f64`.
fn field<'a, T>(parts: &mut impl Iterator<Item = &'a str>, line: usize) -> Result<T, IoError>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let parse_err = |message: String| IoError::Parse { line, message };
    parts
        .next()
        .ok_or_else(|| parse_err("missing field".into()))?
        .parse()
        .map_err(|e: T::Err| parse_err(e.to_string()))
}

/// `len` zeros, or [`IoError::Invalid`] when a header declares more
/// users than can be allocated.
fn zeroed(len: usize) -> Result<Vec<f64>, IoError> {
    let mut values = Vec::new();
    values
        .try_reserve_exact(len)
        .map_err(|e| IoError::Invalid(format!("{len} users: {e}")))?;
    values.resize(len, 0.0);
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replicas::{dblp_like, ReplicaParams};

    #[test]
    fn roundtrip_preserves_instance() {
        let ds = dblp_like(&ReplicaParams::at_scale(0.002, 5));
        let dir = std::env::temp_dir().join("vom_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.txt");
        save_dataset(&ds, &path).unwrap();
        let loaded = load_dataset(&path).unwrap();
        let (a, b) = (&ds.instance, &loaded.instance);
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_candidates(), b.num_candidates());
        assert_eq!(loaded.candidate_names, ds.candidate_names);
        // Diffusion results must match exactly: same graph, opinions,
        // stubbornness.
        let ba = a.opinions_at(5, 0, &[1]);
        let bb = b.opinions_at(5, 0, &[1]);
        for q in 0..a.num_candidates() {
            for (x, y) in ba.row(q).iter().zip(bb.row(q)) {
                assert!((x - y).abs() < 1e-9);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hand_authored_file_parses_with_comments_and_blanks() {
        let dir = std::env::temp_dir().join("vom_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hand.txt");
        std::fs::write(
            &path,
            "# a tiny two-candidate dataset\n\
             n 3 2\n\
             c Alice\n\
             c Bob the Builder\n\
             \n\
             e 0 2 1.0\n\
             e 1 2 3.0\n\
             # opinions\n\
             b 0 0 0.9\n\
             b 1 0 0.1\n\
             b 0 2 0.4\n\
             d 2 0.5\n",
        )
        .unwrap();
        let ds = load_dataset(&path).unwrap();
        assert_eq!(ds.instance.num_nodes(), 3);
        assert_eq!(ds.instance.num_candidates(), 2);
        assert_eq!(
            ds.candidate_names,
            vec!["Alice".to_string(), "Bob the Builder".to_string()],
            "multi-word names survive"
        );
        // Raw weights 1.0/3.0 normalize to 0.25/0.75 on node 2's column.
        let g = ds.instance.graph_of(0);
        let total: f64 = g.in_weights(2).iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(g.in_weights(2).contains(&0.75));
        assert_eq!(ds.instance.candidate(0).initial[0], 0.9);
        assert_eq!(ds.instance.candidate(0).stubbornness[2], 0.5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parse_errors_carry_the_line_number() {
        let dir = std::env::temp_dir().join("vom_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lineno.txt");
        std::fs::write(&path, "n 2 1\ne 0 1 1.0\ne 0 not_a_number 1.0\n").unwrap();
        let err = load_dataset(&path).unwrap_err();
        match err {
            IoError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("expected Parse, got {other}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_header_and_missing_fields_are_rejected() {
        let dir = std::env::temp_dir().join("vom_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.txt");
        // Edge before the 'n' header.
        std::fs::write(&path, "e 0 1 1.0\n").unwrap();
        assert!(matches!(
            load_dataset(&path),
            Err(IoError::Parse { line: 1, .. })
        ));
        // No header at all.
        std::fs::write(&path, "# only comments\n").unwrap();
        assert!(matches!(load_dataset(&path), Err(IoError::Invalid(_))));
        // Truncated edge line.
        std::fs::write(&path, "n 2 1\ne 0\n").unwrap();
        assert!(matches!(
            load_dataset(&path),
            Err(IoError::Parse { line: 2, .. })
        ));
        // Out-of-range opinion value is caught at instance validation.
        std::fs::write(&path, "n 2 1\ne 0 1 1.0\nb 0 0 7.5\n").unwrap();
        assert!(matches!(load_dataset(&path), Err(IoError::Invalid(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn io_error_from_filesystem_is_propagated() {
        let err = load_dataset(Path::new("/nonexistent/vom/nope.txt")).unwrap_err();
        assert!(matches!(err, IoError::Io(_)));
        assert!(err.to_string().contains("io error"));
    }

    #[test]
    fn rejects_garbage() {
        let dir = std::env::temp_dir().join("vom_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.txt");
        std::fs::write(&path, "x 1 2 3\n").unwrap();
        assert!(load_dataset(&path).is_err());
        std::fs::write(&path, "n 2 1\nb 5 0 0.5\n").unwrap();
        assert!(load_dataset(&path).is_err());
        // Counts and indexes are unsigned integers, never cast floats.
        for text in ["n 2 1\ne -1 1 1.0\n", "n 2.9 1\n", "n 2 1\nb 0 -7 0.9\n"] {
            std::fs::write(&path, text).unwrap();
            assert!(
                matches!(load_dataset(&path), Err(IoError::Parse { .. })),
                "{text:?}"
            );
        }
        // A second header would silently discard everything before it.
        std::fs::write(&path, "n 2 1\ne 0 1 1.0\nn 3 1\n").unwrap();
        assert!(matches!(
            load_dataset(&path),
            Err(IoError::Parse { line: 3, .. })
        ));
        // A header too large to allocate is a typed error, not an abort.
        std::fs::write(&path, "n 1000000000000000000 1\n").unwrap();
        assert!(matches!(load_dataset(&path), Err(IoError::Invalid(_))));
        std::fs::remove_file(&path).ok();
    }
}
