//! Where a flow's circuit comes from: a netlist file in any supported
//! format (auto-detected), or an in-memory [`Circuit`].

use std::path::{Path, PathBuf};

use crate::error::Error;
use tr_gatelib::Library;
use tr_netlist::map::MapOptions;
use tr_netlist::{bench, blif, format, map, Circuit};

/// A netlist format the pipeline can ingest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetlistFormat {
    /// ISCAS-style `.bench` (technology-independent; gets mapped).
    Bench,
    /// Combinational `.blif` (technology-independent; gets mapped).
    Blif,
    /// Native `.trnet` (already mapped and configured).
    Trnet,
}

impl NetlistFormat {
    /// Infers the format from a file name's extension.
    pub fn detect(path: &Path) -> Option<Self> {
        match path.extension()?.to_str()? {
            "bench" => Some(NetlistFormat::Bench),
            "blif" => Some(NetlistFormat::Blif),
            "trnet" => Some(NetlistFormat::Trnet),
            _ => None,
        }
    }
}

/// The input end of a [`Flow`](crate::Flow).
#[derive(Debug, Clone)]
pub enum Source {
    /// Read and parse `path`, auto-detecting the format.
    Path(PathBuf),
    /// Use an already-constructed mapped circuit.
    Circuit(Circuit),
}

impl Source {
    /// A short display name for reports: the file stem, or the circuit's
    /// own name.
    pub fn name(&self) -> String {
        match self {
            Source::Path(p) => p
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("netlist")
                .to_string(),
            Source::Circuit(c) => c.name().to_string(),
        }
    }

    /// Materializes the mapped circuit (parsing + technology mapping for
    /// file sources; a clone for in-memory sources).
    pub fn load(&self, library: &Library, options: &MapOptions) -> Result<Circuit, Error> {
        match self {
            Source::Path(path) => load_path(path, library, options),
            Source::Circuit(c) => Ok(c.clone()),
        }
    }
}

impl From<&Path> for Source {
    fn from(p: &Path) -> Self {
        Source::Path(p.to_path_buf())
    }
}

impl From<PathBuf> for Source {
    fn from(p: PathBuf) -> Self {
        Source::Path(p)
    }
}

impl From<Circuit> for Source {
    fn from(c: Circuit) -> Self {
        Source::Circuit(c)
    }
}

/// Reads `path`, detects its format, parses it, and (for the generic
/// formats) maps it onto `library`.
pub fn load_path(path: &Path, library: &Library, options: &MapOptions) -> Result<Circuit, Error> {
    let format =
        NetlistFormat::detect(path).ok_or_else(|| Error::UnknownFormat(path.to_path_buf()))?;
    let text = std::fs::read_to_string(path).map_err(|e| Error::io(path, e))?;
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("netlist");
    parse_netlist(stem, &text, format, library, options)
}

/// Parses netlist text in the given format into a mapped circuit.
///
/// The one entry point behind every file-based source: `.bench` and
/// `.blif` go through the technology mapper with `options`; `.trnet` is
/// already mapped and is validated against `library` instead.
pub fn parse_netlist(
    name: &str,
    text: &str,
    format: NetlistFormat,
    library: &Library,
    options: &MapOptions,
) -> Result<Circuit, Error> {
    let generic = {
        let _s = tr_trace::span!("load.parse", bytes = text.len());
        match format {
            NetlistFormat::Bench => bench::parse(name, text)?,
            NetlistFormat::Blif => blif::parse(text)?,
            NetlistFormat::Trnet => return Ok(format::parse(text, library)?),
        }
    };
    let _s = tr_trace::span!("load.map", signals = generic.signal_count());
    Ok(map::map(&generic, library, options))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_detection() {
        assert_eq!(
            NetlistFormat::detect(Path::new("a/b/c17.bench")),
            Some(NetlistFormat::Bench)
        );
        assert_eq!(
            NetlistFormat::detect(Path::new("x.blif")),
            Some(NetlistFormat::Blif)
        );
        assert_eq!(
            NetlistFormat::detect(Path::new("x.trnet")),
            Some(NetlistFormat::Trnet)
        );
        assert_eq!(NetlistFormat::detect(Path::new("x.v")), None);
        assert_eq!(NetlistFormat::detect(Path::new("Makefile")), None);
    }

    #[test]
    fn bench_text_parses_and_maps() {
        let lib = Library::standard();
        let text = bench::write(&bench::c17());
        let c = parse_netlist(
            "c17",
            &text,
            NetlistFormat::Bench,
            &lib,
            &MapOptions::default(),
        )
        .expect("c17 maps");
        assert!(c.validate(&lib).is_ok());
        assert_eq!(c.primary_inputs().len(), 5);
    }

    #[test]
    fn unknown_extension_is_reported() {
        let lib = Library::standard();
        let err = load_path(Path::new("x.v"), &lib, &MapOptions::default()).unwrap_err();
        assert!(matches!(err, Error::UnknownFormat(_)));
    }

    #[test]
    fn missing_file_is_io_error() {
        let lib = Library::standard();
        let err = load_path(
            Path::new("/nonexistent/x.bench"),
            &lib,
            &MapOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, Error::Io { .. }));
    }
}
