//! Model persistence: a plain-text, line-oriented format so trained Dopia
//! models can be shipped with a deployment (the paper's released framework
//! includes its training data; we additionally ship trained models).
//!
//! Layout:
//!
//! ```text
//! dopia-model v1 <LIN|SVR|DT|RF>
//! <model-family-specific lines>
//! ```
//!
//! The per-family bodies are produced by each model's `to_lines` and parsed
//! by its `from_lines`; parsing validates structure so corrupt files fail
//! loudly at load time rather than at inference time.
//!
//! Files written by [`save`] additionally carry a `crc32=XXXXXXXX` token on
//! the header line covering the body, and are written via a temp file +
//! atomic rename so a crash mid-save can never leave a torn model on disk.
//! Files without the token (written by older versions, or by hand) still
//! load.

use crate::dtree::DecisionTree;
use crate::forest::RandomForest;
use crate::linreg::LinearRegression;
use crate::svr::Svr;
use crate::{ModelKind, Regressor};
use std::path::Path;

const MAGIC: &str = "dopia-model v1";

/// IEEE CRC-32 (the zlib/PNG polynomial), bitwise — fast enough for the
/// few-hundred-KB model and result files this workspace writes.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Write `contents` to `path` crash-safely: the bytes land in a sibling
/// temp file which is fsync'd and then atomically renamed over the target,
/// so readers observe either the old file or the complete new one — never
/// a torn prefix.
pub fn atomic_write(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Serialize a trained model of a known family to the text format,
/// including the body checksum in the header.
pub fn to_string(kind: ModelKind, model: &dyn SerializableModel) -> String {
    let body = model.to_lines().join("\n") + "\n";
    format!("{} {} crc32={:08x}\n{}", MAGIC, kind.label(), crc32(body.as_bytes()), body)
}

/// Parse a model from the text format. A `crc32=` token in the header is
/// verified against the body; headers without one are accepted as-is.
pub fn from_string(text: &str) -> Result<(ModelKind, Box<dyn Regressor>), String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty model file")?;
    let mut label = header
        .strip_prefix(MAGIC)
        .ok_or_else(|| format!("bad magic `{}`", header))?
        .trim();
    if let Some((kind_part, crc_part)) = label.split_once(' ') {
        let want = crc_part
            .trim()
            .strip_prefix("crc32=")
            .ok_or_else(|| format!("bad header token `{}`", crc_part.trim()))?;
        let want = u32::from_str_radix(want, 16).map_err(|e| format!("bad crc32: {}", e))?;
        let body_start = text.find('\n').map(|i| i + 1).unwrap_or(text.len());
        let got = crc32(&text.as_bytes()[body_start..]);
        if got != want {
            return Err(format!("checksum mismatch: header {:08x}, body {:08x}", want, got));
        }
        label = kind_part;
    }
    let kind = match label {
        "LIN" => ModelKind::Lin,
        "SVR" => ModelKind::Svr,
        "DT" => ModelKind::Dt,
        "RF" => ModelKind::Rf,
        other => return Err(format!("unknown model kind `{}`", other)),
    };
    let model: Box<dyn Regressor> = match kind {
        ModelKind::Lin => Box::new(LinearRegression::from_lines(&mut lines)?),
        ModelKind::Svr => Box::new(Svr::from_lines(&mut lines)?),
        ModelKind::Dt => Box::new(DecisionTree::from_lines(&mut lines)?),
        ModelKind::Rf => Box::new(RandomForest::from_lines(&mut lines)?),
    };
    Ok((kind, model))
}

/// Save to a file (temp file + atomic rename; see [`atomic_write`]).
pub fn save(path: &Path, kind: ModelKind, model: &dyn SerializableModel) -> std::io::Result<()> {
    atomic_write(path, to_string(kind, model).as_bytes())
}

/// Load from a file.
pub fn load(path: &Path) -> Result<(ModelKind, Box<dyn Regressor>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {}", path.display(), e))?;
    from_string(&text)
}

/// A model that knows how to serialize itself line by line.
pub trait SerializableModel: Regressor {
    fn to_lines(&self) -> Vec<String>;
}

impl SerializableModel for LinearRegression {
    fn to_lines(&self) -> Vec<String> {
        LinearRegression::to_lines(self)
    }
}

impl SerializableModel for Svr {
    fn to_lines(&self) -> Vec<String> {
        Svr::to_lines(self)
    }
}

impl SerializableModel for DecisionTree {
    fn to_lines(&self) -> Vec<String> {
        DecisionTree::to_lines(self)
    }
}

impl SerializableModel for RandomForest {
    fn to_lines(&self) -> Vec<String> {
        RandomForest::to_lines(self)
    }
}

/// Train a model and return both the boxed regressor and its serialized
/// form (convenience for the training binaries).
pub fn train_serialized(kind: ModelKind, data: &crate::Dataset, seed: u64) -> (Box<dyn Regressor>, String) {
    match kind {
        ModelKind::Lin => {
            let m = LinearRegression::fit(data);
            let s = to_string(kind, &m);
            (Box::new(m), s)
        }
        ModelKind::Svr => {
            let m = Svr::fit(data, &crate::SvrParams::default(), seed);
            let s = to_string(kind, &m);
            (Box::new(m), s)
        }
        ModelKind::Dt => {
            let m = DecisionTree::fit(data, &crate::TreeParams::default());
            let s = to_string(kind, &m);
            (Box::new(m), s)
        }
        ModelKind::Rf => {
            let m = RandomForest::fit(data, &crate::ForestParams::default(), seed);
            let s = to_string(kind, &m);
            (Box::new(m), s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dataset;

    fn dataset() -> Dataset {
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![(i % 20) as f64 / 20.0, (i % 7) as f64])
            .collect();
        let ys: Vec<f64> = rows.iter().map(|r| if r[0] > 0.5 { r[1] } else { -r[1] }).collect();
        Dataset::new(rows, ys).unwrap()
    }

    #[test]
    fn every_family_round_trips_exactly() {
        let data = dataset();
        let probes = [vec![0.25, 3.0], vec![0.75, 6.0], vec![0.5, 0.0]];
        for kind in ModelKind::all() {
            let (original, text) = train_serialized(kind, &data, 5);
            let (loaded_kind, loaded) = from_string(&text)
                .unwrap_or_else(|e| panic!("{}: {}", kind.label(), e));
            assert_eq!(loaded_kind, kind);
            for p in &probes {
                assert_eq!(
                    original.predict(p),
                    loaded.predict(p),
                    "{} prediction drifted after round trip",
                    kind.label()
                );
            }
        }
    }

    #[test]
    fn corrupt_files_fail_loudly() {
        assert!(from_string("").is_err());
        assert!(from_string("not a model\n").is_err());
        assert!(from_string("dopia-model v1 XX\n").is_err());
        assert!(from_string("dopia-model v1 DT\nnodes 2\nL 1.0\n").is_err()); // truncated
        assert!(from_string("dopia-model v1 DT\nnodes 1\nS 0 1.0 5 6\n").is_err()); // bad child
        assert!(from_string("dopia-model v1 DT\nnodes 1\nS 0 5e-1 0 0\n").is_err()); // self loop
        assert!(from_string("dopia-model v1 RF\ntrees 1\nnodes 2\nL 1\nS 0 5e-1 0 1\n").is_err());
        assert!(from_string("dopia-model v1 LIN\ncoeffs 1 2\nstats 0 1 0 1\n").is_err()); // shape
    }

    #[test]
    fn checksum_catches_a_flipped_bit_and_legacy_files_still_load() {
        let data = dataset();
        let (_, text) = train_serialized(ModelKind::Lin, &data, 5);
        assert!(text.lines().next().unwrap().contains("crc32="));
        // Corrupt one body byte: the checksum must reject it.
        let corrupt = text.replacen("coeffs", "coefgs", 1);
        match from_string(&corrupt) {
            Err(e) => assert!(e.contains("checksum mismatch"), "{}", e),
            Ok(_) => panic!("corrupt body was accepted"),
        }
        // A pre-checksum header (no crc32 token) still loads.
        let body_start = text.find('\n').unwrap() + 1;
        let legacy = format!("dopia-model v1 LIN\n{}", &text[body_start..]);
        assert!(from_string(&legacy).is_ok());
        assert!(from_string("dopia-model v1 LIN bogus=1\nx\n").is_err());
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp_behind() {
        let dir = std::env::temp_dir().join("dopia_atomic_write");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.txt");
        atomic_write(&path, b"first").unwrap();
        atomic_write(&path, b"second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {:?}", leftovers);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("dopia_model_io");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.txt");
        let data = dataset();
        let m = DecisionTree::fit(&data, &crate::TreeParams::default());
        save(&path, ModelKind::Dt, &m).unwrap();
        let (kind, loaded) = load(&path).unwrap();
        assert_eq!(kind, ModelKind::Dt);
        assert_eq!(m.predict(&[0.3, 2.0]), loaded.predict(&[0.3, 2.0]));
        assert!(load(&dir.join("missing.txt")).is_err());
    }
}
