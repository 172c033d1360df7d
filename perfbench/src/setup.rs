//! What every run loads before its first timed op: the committed
//! descriptions (parsed and built as `camj` does), the Ed-Gaze eye
//! image, the committed goldens, and a running daemon.

use std::path::{Path, PathBuf};

use camj_core::energy::ValidatedModel;
use camj_core::functional::Stimulus;
use camj_desc::DesignDesc;
use serde_json::{Map, Value};

use crate::daemon::Daemon;

/// The five committed descriptions, smallest first.
pub const DESIGNS: [&str; 5] = ["quickstart", "custom_chip", "isscc17", "rhythmic", "edgaze"];

/// The committed stimulus the Ed-Gaze description references.
pub const EYE_IMAGE: &str = "descriptions/edgaze_eye.pgm";

/// One committed description, loaded the way the CLI loads it.
pub struct Design {
    pub name: &'static str,
    pub desc: DesignDesc,
    /// Built, with its stimulus block resolved against the file's
    /// directory and attached.
    pub model: ValidatedModel,
    /// Compact JSON for inline requests, with a relative image path
    /// resolved against the file's directory exactly as the CLI does.
    pub served: String,
    /// Compact JSON of the file as committed.
    pub verbatim: String,
}

/// The committed outputs the checks compare against.
pub struct Goldens {
    pub quickstart_estimate: String,
    pub edgaze_simulate: String,
    pub edgaze_pareto: String,
    pub edgaze_search: String,
    pub edgaze_pareto_accuracy: String,
    /// `descriptions/quickstart.serve.txt`, one frame per line.
    pub serve_lines: Vec<String>,
}

impl Goldens {
    /// The golden serve transcript's frames for request `id`.
    pub fn serve_frames(&self, id: u64) -> Vec<String> {
        let prefix = format!("{{\"id\":{id},");
        self.serve_lines
            .iter()
            .filter(|l| l.starts_with(&prefix))
            .cloned()
            .collect()
    }
}

pub struct Setup {
    pub designs: Vec<Design>,
    pub eye: Stimulus,
    pub goldens: Goldens,
    pub daemon: Daemon,
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))
}

impl Setup {
    /// Loads everything and starts a daemon with `workers` workers.
    pub fn open(camj: &Path, workers: usize) -> Result<Self, String> {
        let designs = DESIGNS
            .iter()
            .map(|name| load_design(name))
            .collect::<Result<Vec<_>, _>>()?;
        let eye = Stimulus::image_from_path(EYE_IMAGE)?;
        let goldens = Goldens {
            quickstart_estimate: read("descriptions/quickstart.estimate.txt")?,
            edgaze_simulate: read("descriptions/edgaze.simulate.txt")?,
            edgaze_pareto: read("descriptions/edgaze.pareto.json")?,
            edgaze_search: read("descriptions/edgaze.search.json")?,
            edgaze_pareto_accuracy: read("descriptions/edgaze.pareto-accuracy.json")?,
            serve_lines: read("descriptions/quickstart.serve.txt")?
                .lines()
                .map(str::to_owned)
                .collect(),
        };
        let daemon = Daemon::spawn(camj, workers)?;
        Ok(Self {
            designs,
            eye,
            goldens,
            daemon,
        })
    }

    pub fn design(&self, name: &str) -> &Design {
        self.designs
            .iter()
            .find(|d| d.name == name)
            .expect("a committed design")
    }
}

fn load_design(name: &'static str) -> Result<Design, String> {
    let path = format!("descriptions/{name}.json");
    let text = read(&path)?;
    let desc = DesignDesc::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut model = desc.build().map_err(|e| format!("{path}: {e}"))?;
    let base = Path::new(&path).parent();
    if let Some(ir) = &desc.stimulus {
        model = model.with_stimulus(ir.resolve(base).map_err(|e| format!("{path}: {e}"))?);
    }
    let value: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let verbatim = serde_json::to_string(&value).map_err(|e| format!("{path}: {e}"))?;
    let served = serde_json::to_string(&resolve_image_path(&value, base))
        .map_err(|e| format!("{path}: {e}"))?;
    Ok(Design {
        name,
        desc,
        model,
        served,
        verbatim,
    })
}

/// The description with a relative `stimulus.image.path` joined onto
/// `base`, the rule `camj` applies to a description file it loads.
fn resolve_image_path(design: &Value, base: Option<&Path>) -> Value {
    let Some(object) = design.as_object() else {
        return design.clone();
    };
    let image_path = object
        .get("stimulus")
        .and_then(Value::as_object)
        .and_then(|s| s.get("image"))
        .and_then(Value::as_object)
        .and_then(|i| i.get("path"))
        .and_then(Value::as_str);
    let (Some(file), Some(base)) = (image_path, base) else {
        return design.clone();
    };
    if !Path::new(file).is_relative() {
        return design.clone();
    }
    let resolved: PathBuf = base.join(file);
    let mut image = Map::new();
    image.insert("path", Value::String(resolved.display().to_string()));
    let mut out = object.clone();
    out.insert("stimulus", Value::tagged("image", Value::Object(image)));
    Value::Object(out)
}
