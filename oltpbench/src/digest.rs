//! Output digests: FNV-1a over the deterministic sections of the
//! simulator's reports.
//!
//! Every section that echoes the host (wall-clock profiles) or the
//! invocation (the manifest, which names input paths and the version) is
//! left out, so two runs of the same configuration and seed digest equal
//! exactly when they simulated the same thing.

use csim_obs::json::Json;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a hash over serialized JSON sections.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(FNV_OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds in one named section; a missing section hashes as a marker
    /// no JSON value serializes to, so dropping a section changes the
    /// digest.
    pub fn section(&mut self, name: &str, value: Option<&Json>) -> &mut Digest {
        self.bytes(name.as_bytes());
        self.bytes(b"=");
        self.bytes(
            value
                .map_or_else(|| "<missing>".to_string(), Json::to_string)
                .as_bytes(),
        );
        self.bytes(b"\n");
        self
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// A run report (`csim-run-report/v1`): its `report` and
/// `observations` sections.
pub fn run_report(doc: &Json) -> String {
    Digest::new()
        .section("report", doc.get("report"))
        .section("observations", doc.get("observations"))
        .hex()
}

/// A run report plus the attribution section of its `--prof` report.
pub fn observed_run(doc: &Json, prof: &Json) -> String {
    Digest::new()
        .section("report", doc.get("report"))
        .section("observations", doc.get("observations"))
        .section("attribution", prof.get("attribution"))
        .hex()
}

/// A sweep report (`csim-sweep-report/v1`): the plan echo and, per
/// run, its label, seed and the deterministic sections of its run
/// report (a failed point's entry goes in whole, so a failure can never
/// digest equal to a success).
pub fn sweep_report(doc: &Json) -> String {
    let mut d = Digest::new();
    d.section("plan", doc.get("plan"));
    for run in doc.get("runs").and_then(Json::as_arr).unwrap_or(&[]) {
        d.section("label", run.get("label"))
            .section("seed", run.get("seed"));
        match run.get("run") {
            Some(r) => {
                d.section("report", r.get("report"))
                    .section("observations", r.get("observations"));
            }
            None => {
                d.section("entry", Some(run));
            }
        }
    }
    d.hex()
}

#[cfg(test)]
mod tests {
    use super::*;
    use csim_obs::json::parse;

    fn report(manifest_tool: &str, host: &str, misses: u64) -> Json {
        parse(&format!(
            r#"{{"schema":"csim-run-report/v1","manifest":{{"tool":"{manifest_tool}"}},"report":{{"misses":{{"total":{misses}}}}},"observations":null,"host_profile":{host}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn manifest_and_host_profile_are_excluded() {
        let a = report("csim", "null", 7);
        let b = report(
            "other",
            r#"{"phases":{"phases":[{"name":"measure","millis":12.5}]}}"#,
            7,
        );
        assert_eq!(run_report(&a), run_report(&b));
    }

    #[test]
    fn one_changed_counter_changes_the_digest() {
        assert_ne!(
            run_report(&report("csim", "null", 7)),
            run_report(&report("csim", "null", 8))
        );
    }

    #[test]
    fn a_missing_section_changes_the_digest() {
        let whole = report("csim", "null", 7);
        let cut = parse(r#"{"report":{"misses":{"total":7}}}"#).unwrap();
        assert_ne!(run_report(&whole), run_report(&cut));
    }

    #[test]
    fn sweep_digest_ignores_the_profile_and_run_manifests() {
        let doc = |profile: &str, tool: &str| {
            parse(&format!(
                r#"{{"plan":{{"name":"p"}},"runs":[{{"label":"a","seed":1,"run":{{"manifest":{{"tool":"{tool}"}},"report":{{"x":1}},"observations":null}}}}]{profile}}}"#
            ))
            .unwrap()
        };
        let plain = doc("", "csim-sweep");
        let profiled = doc(r#","profile":{"phases":[]}"#, "renamed");
        assert_eq!(sweep_report(&plain), sweep_report(&profiled));
        let failed = parse(
            r#"{"plan":{"name":"p"},"runs":[{"label":"a","seed":1,"failed":{"attempts":3,"error":"x"}}]}"#,
        )
        .unwrap();
        assert_ne!(sweep_report(&plain), sweep_report(&failed));
    }
}
