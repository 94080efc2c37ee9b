//! The correctness oracle applied to every scan the benchmark times.

use crate::inputs::Image;
use dtaint_core::{AnalysisReport, Dtaint, DtaintConfig, Finding};
use dtaint_fwgen::PlantedVuln;
use dtaint_fwimage::{extract_binaries, extract_image};
use std::collections::BTreeSet;

/// The finding fingerprints of a scan.
pub fn fingerprints(findings: &[Finding]) -> BTreeSet<String> {
    findings.iter().map(|f| f.fingerprint.clone()).collect()
}

/// The known answer for one image: its planted flows and a cold,
/// cache-less `threads = 1` reference scan made at set-up.
#[derive(Debug, Clone)]
pub struct Expected {
    /// Planted flows.
    pub truth: Vec<PlantedVuln>,
    /// The reference report with wall-clock fields zeroed.
    pub reference: AnalysisReport,
    /// The reference's finding fingerprints.
    pub fingerprints: BTreeSet<String>,
    /// The reference rendered as `dtaint batch` writes a report, with
    /// wall-clock values masked ([`mask_wall_clock`]).
    pub reference_json: String,
    /// The oracle's verdict on the reference's own findings.
    pub reference_verdict: Result<(), String>,
}

impl Expected {
    /// Scans `image` cold at one thread to build its known answer.
    ///
    /// # Errors
    ///
    /// When the image does not unpack to exactly one executable or the
    /// reference scan fails.
    pub fn reference(image: &Image) -> Result<Expected, String> {
        let (name, bin) = single_binary(&image.bytes)?;
        let config = DtaintConfig { threads: 1, ..Default::default() };
        let reference = Dtaint::with_config(config)
            .analyze(&bin, &name)
            .map_err(|e| format!("{}: reference scan: {e}", image.name))?
            .with_zeroed_wall_clock();
        let reference_json =
            mask_wall_clock(&reference.to_json().map_err(|e| format!("{}: {e}", image.name))?);
        let mut expected = Expected {
            truth: image.truth.clone(),
            fingerprints: fingerprints(&reference.findings),
            reference,
            reference_json,
            reference_verdict: Ok(()),
        };
        expected.reference_verdict = expected.check_findings(&expected.reference.findings);
        Ok(expected)
    }

    /// Checks a scan's findings: every vulnerable plant is found with
    /// its source/sink pair, the distinct vulnerable sink sites number
    /// exactly the vulnerable plants, and the fingerprint set equals the
    /// reference's.
    ///
    /// # Errors
    ///
    /// Names the first check that failed.
    pub fn check_findings(&self, findings: &[Finding]) -> Result<(), String> {
        let vulnerable: Vec<&Finding> = findings.iter().filter(|f| !f.sanitized()).collect();
        let plants: Vec<&PlantedVuln> = self.truth.iter().filter(|g| !g.sanitized).collect();
        for g in &plants {
            let found = vulnerable
                .iter()
                .any(|f| f.sink == g.sink && f.sources.iter().any(|s| s.name == g.source));
            if !found {
                return Err(format!("plant {} ({} -> {}) missed", g.id, g.source, g.sink));
            }
        }
        let sites: BTreeSet<u32> = vulnerable.iter().map(|f| f.sink_ins).collect();
        if sites.len() != plants.len() {
            return Err(format!(
                "{} vulnerable sink sites for {} vulnerable plants",
                sites.len(),
                plants.len()
            ));
        }
        let got = fingerprints(findings);
        if got != self.fingerprints {
            return Err(format!(
                "fingerprints differ from the reference: {} extra, {} missing",
                got.difference(&self.fingerprints).count(),
                self.fingerprints.difference(&got).count()
            ));
        }
        Ok(())
    }

    /// [`Expected::check_findings`], then the whole report, modulo
    /// wall-clock fields, against the reference.
    ///
    /// # Errors
    ///
    /// Names the first check that failed.
    pub fn check_report(&self, report: &AnalysisReport) -> Result<(), String> {
        self.check_findings(&report.findings)?;
        if report.clone().with_zeroed_wall_clock() != self.reference {
            return Err("report differs from the cold reference scan".to_owned());
        }
        Ok(())
    }

    /// [`Expected::check_report`] on a report file's text. A text equal
    /// to the reference's once wall-clock values are masked is the
    /// reference, so it takes the reference's verdict without a parse;
    /// any other text is parsed and checked in full.
    ///
    /// # Errors
    ///
    /// Names the first check that failed.
    pub fn check_report_json(&self, text: &str) -> Result<(), String> {
        if mask_wall_clock(text) == self.reference_json {
            return self.reference_verdict.clone();
        }
        let report = AnalysisReport::from_json(text.trim()).map_err(|e| e.to_string())?;
        self.check_report(&report)
    }
}

/// Keys of the wall-clock values in a pretty-printed report: the
/// `StageTimings` durations and the per-function display costs — the
/// fields `AnalysisReport::with_zeroed_wall_clock` zeroes.
const WALL_CLOCK_KEYS: [&str; 4] = ["\"secs\": ", "\"nanos\": ", "\"symex_us\": ", "\"ddg_us\": "];

/// Replaces every wall-clock value of a pretty-printed report with 0.
pub fn mask_wall_clock(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    for line in json.trim().lines() {
        let body = line.trim_start();
        match WALL_CLOCK_KEYS.iter().find(|k| body.starts_with(*k)) {
            Some(key) => {
                out.push_str(&line[..line.len() - body.len()]);
                out.push_str(key);
                out.push('0');
                if body.ends_with(',') {
                    out.push(',');
                }
            }
            None => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// Unpacks an image that holds exactly one executable.
///
/// # Errors
///
/// On unpack failure or any other number of executables.
pub fn single_binary(bytes: &[u8]) -> Result<(String, dtaint_fwbin::Binary), String> {
    let img = extract_image(bytes).map_err(|e| format!("unpack: {e}"))?;
    let mut bins = extract_binaries(&img).map_err(|e| format!("extract: {e}"))?;
    match bins.len() {
        1 => Ok(bins.remove(0)),
        n => Err(format!("expected one executable, found {n}")),
    }
}
