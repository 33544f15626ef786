//! The benchmark's workloads: which `csim` invocation each one times,
//! the inputs it generates for it, and the same configuration built
//! in-process through the library.

use std::path::Path;

use csim_config::IntegrationLevel;
use csim_core::{run_report_json, Simulation};
use csim_fault::{FaultInjector, FaultPlan};
use csim_obs::{ObsConfig, Observer, RunManifest};
use csim_prof::prof_report_json;
use csim_sweep::{integration_short_name, run_sweep_cfg, L2Spec, RunSpec, SweepConfig, SweepPlan};
use csim_trace::ReferenceStream;
use csim_workload::OltpParams;

use crate::digest;

/// `csim`'s own default workload seed (`OltpParams::default().seed`).
pub const DEFAULT_SEED: u64 = 212_205_442_179_072;

/// Worker threads of the sweep workload. One: with two workers on a
/// shared 2-core host, the benchmark itself and the host compete with
/// them, and the slower worker sets the time (ten 25 s windows of a
/// two-worker sweep of 2 s runs spread 25–29% in refs/s, against 9–15%
/// on one worker). One worker still takes the engine's pool,
/// per-point set-up and merge path.
pub const SWEEP_JOBS: usize = 1;

/// Epoch length of the observed workload, in references per node.
const OBSERVED_EPOCH: u64 = 1_000_000;

/// The fault plan of the observed workload: `examples/fault_storm.toml`'s
/// storm (2% NACKs with capped exponential backoff, a quarter-bandwidth
/// link window and a memory-controller brown-out), generated into the
/// run's scratch directory so `csim` reads only generated inputs. It is
/// fixed here, not read from the example, so that editing the example
/// cannot change what the benchmark measures.
const FAULT_STORM_TOML: &str = "\
[nack]
prob = 0.02
max_retries = 8
backoff_base = 16
backoff_cap = 4096
exponential = true

[network]
mean_hops = 2.0
line_cycles = 4.0

[[link_fault]]
start = 100000
duration = 400000
capacity = 0.25

[[mc_fault]]
start = 600000
duration = 200000
extra_cycles = 40
";

/// One simulated configuration of a single-run workload.
struct Single {
    nodes: usize,
    integration: IntegrationLevel,
    l2: &'static str,
    rac: bool,
    ooo: bool,
    observed: bool,
    warm: u64,
    meas: u64,
}

enum Shape {
    Single(Single),
    /// A `csim --sweep` over the L2 associativity of an 8-node machine
    /// with the L2 integrated (the Figure 9 grid).
    Sweep {
        l2: &'static [&'static str],
        nodes: usize,
        warm: u64,
        meas: u64,
    },
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    shape: Shape,
}

/// The workloads, in the order they are run and reported. Each `csim`
/// run is sized to take about 0.1 s on a 2-core x86-64 host, so a
/// measurement window of tens of seconds holds a few hundred repetitions
/// (`e2e.rs` says why short runs).
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "uni-base",
        why: "1p Base 8M1w in-order (Fig. 5 baseline, csim's default): single-stream fast path with the repeat-fetch run scanner",
        shape: Shape::Single(Single {
            nodes: 1,
            integration: IntegrationLevel::Base,
            l2: "8M1w",
            rac: false,
            ooo: false,
            observed: false,
            warm: 500_000,
            meas: 4_000_000,
        }),
    },
    Workload {
        name: "mp8-all-rac",
        why: "8p fully integrated 2M8w + RAC (Figs. 8, 12): word-by-word multi-stream dispatch, 2-/3-hop directory traffic, RAC probes",
        shape: Shape::Single(Single {
            nodes: 8,
            integration: IntegrationLevel::FullyIntegrated,
            l2: "2M8w",
            rac: true,
            ooo: false,
            observed: false,
            warm: 125_000,
            meas: 250_000,
        }),
    },
    Workload {
        name: "uni-ooo-observed",
        why: "1p All 2M8w OOO with fault storm, histograms, epochs and --prof: the observed dispatch arm and the heavier export",
        shape: Shape::Single(Single {
            nodes: 1,
            integration: IntegrationLevel::FullyIntegrated,
            l2: "2M8w",
            rac: false,
            ooo: true,
            observed: true,
            warm: 500_000,
            meas: 3_500_000,
        }),
    },
    Workload {
        name: "sweep-fig09",
        why: "csim --sweep of the Fig. 9 grid (8p, L2 integrated, 2M 1/2/4/8-way) on one worker: per-point set-up, pool and merge",
        shape: Shape::Sweep { l2: &["2M1w", "2M2w", "2M4w", "2M8w"], nodes: 8, warm: 50_000, meas: 100_000 },
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A workload instantiated for one seed and run length.
pub struct Instance {
    pub wl: &'static Workload,
    pub seed: u64,
    /// Divisor applied to every run length (1 = full length).
    pub scale: u64,
    /// The simulated configurations: one, or the sweep's grid points.
    pub specs: Vec<RunSpec>,
    /// The sweep plan, for the sweep workload.
    pub plan: Option<SweepPlan>,
}

impl Instance {
    pub fn new(wl: &'static Workload, seed: u64, scale: u64) -> Instance {
        let scaled = |refs: u64| (refs / scale).max(1);
        match &wl.shape {
            Shape::Single(s) => {
                let l2 = L2Spec::parse(s.l2).expect("workload L2 specs are valid");
                let spec = RunSpec {
                    integration: s.integration,
                    l2_bytes: l2.bytes,
                    l2_assoc: l2.assoc,
                    l2_label: l2.label,
                    nodes: s.nodes,
                    cores: 1,
                    seed_index: 0,
                    seed,
                    dram: false,
                    rac: s.rac,
                    replicate: false,
                    ooo: s.ooo,
                    warm: scaled(s.warm),
                    meas: scaled(s.meas),
                };
                Instance {
                    wl,
                    seed,
                    scale,
                    specs: vec![spec],
                    plan: None,
                }
            }
            Shape::Sweep {
                l2,
                nodes,
                warm,
                meas,
            } => {
                let plan = SweepPlan {
                    name: wl.name.to_string(),
                    warm: scaled(*warm),
                    meas: scaled(*meas),
                    integration: vec![IntegrationLevel::L2Integrated],
                    l2: l2
                        .iter()
                        .map(|s| L2Spec::parse(s).expect("valid spec"))
                        .collect(),
                    nodes: vec![*nodes],
                    cores: vec![1],
                    seeds: vec![seed],
                    ..SweepPlan::default()
                };
                Instance {
                    wl,
                    seed,
                    scale,
                    specs: plan.expand(),
                    plan: Some(plan),
                }
            }
        }
    }

    /// Whether `csim` runs this workload with the fault storm and the
    /// observation machinery (histograms, epochs, cycle attribution).
    pub fn observed(&self) -> bool {
        matches!(&self.wl.shape, Shape::Single(s) if s.observed)
    }

    /// Simulated references of one whole run: warm-up plus measurement,
    /// times streams, summed over grid points.
    pub fn refs(&self) -> u64 {
        self.specs
            .iter()
            .map(|s| (s.warm + s.meas) * (s.nodes * s.cores) as u64)
            .sum()
    }

    /// Writes the generated inputs `csim` reads into `dir`.
    pub fn write_inputs(&self, dir: &Path) -> std::io::Result<()> {
        if let Some(plan) = &self.plan {
            std::fs::write(dir.join("plan.toml"), plan_toml(plan))?;
        }
        if self.observed() {
            std::fs::write(dir.join("fault_storm.toml"), FAULT_STORM_TOML)?;
        }
        Ok(())
    }

    /// The `csim` arguments of one timed run; every output lands in
    /// `dir` (`report.json`, plus `prof.json` or `trace.json`).
    pub fn csim_args(&self, dir: &Path) -> Vec<String> {
        let path = |name: &str| dir.join(name).display().to_string();
        let mut a: Vec<String> = Vec::new();
        if self.plan.is_some() {
            a.extend([
                "--sweep".into(),
                path("plan.toml"),
                "--jobs".into(),
                SWEEP_JOBS.to_string(),
            ]);
            a.extend(["--trace-events".into(), path("trace.json")]);
        } else {
            let s = &self.specs[0];
            a.extend([
                "--nodes".into(),
                s.nodes.to_string(),
                "--cores".into(),
                s.cores.to_string(),
                "--integration".into(),
                integration_short_name(s.integration).into(),
                "--l2".into(),
                s.l2_label.clone(),
                "--warm".into(),
                s.warm.to_string(),
                "--meas".into(),
                s.meas.to_string(),
                "--seed".into(),
                self.seed.to_string(),
            ]);
            if s.rac {
                a.push("--rac".into());
            }
            if s.ooo {
                a.push("--ooo".into());
            }
            if self.observed() {
                a.extend(["--fault-plan".into(), path("fault_storm.toml")]);
                a.extend(["--fault-seed".into(), self.seed.to_string()]);
                a.extend([
                    "--histograms".into(),
                    "--epoch".into(),
                    OBSERVED_EPOCH.to_string(),
                ]);
                a.extend(["--prof".into(), path("prof.json")]);
            }
        }
        a.extend([
            "--quiet".into(),
            "--profile".into(),
            "--json-report".into(),
            path("report.json"),
        ]);
        a
    }

    /// Wires this workload's fault storm into a simulation, as `csim`
    /// does, and the observation machinery when `observe` is set.
    pub fn arm<S: ReferenceStream>(
        &self,
        sim: &mut Simulation<S>,
        observe: bool,
    ) -> Result<(), String> {
        if observe {
            sim.set_observer(Observer::new(ObsConfig {
                histograms: true,
                epoch: Some(OBSERVED_EPOCH),
                trace: None,
            }));
            sim.set_attribution(true);
        }
        if self.observed() {
            let plan = FaultPlan::from_toml_str(FAULT_STORM_TOML).map_err(|e| e.to_string())?;
            sim.set_fault_injector(FaultInjector::new(plan, self.seed).map_err(|e| e.to_string())?);
        }
        Ok(())
    }

    /// The digest `csim`'s outputs must have, computed by running the
    /// same configuration in-process through the library.
    pub fn reference_digest(&self) -> Result<String, String> {
        if let Some(plan) = &self.plan {
            let cfg = SweepConfig {
                jobs: SWEEP_JOBS,
                ..SweepConfig::default()
            };
            let outcome = run_sweep_cfg(plan, &cfg).map_err(|e| e.to_string())?;
            return Ok(digest::sweep_report(&outcome.to_json()));
        }
        let spec = &self.specs[0];
        let cfg = spec.build_config().map_err(|e| e.to_string())?;
        let params = OltpParams {
            seed: self.seed,
            ..OltpParams::default()
        };
        let mut sim = Simulation::with_oltp(&cfg, params).map_err(|e| e.to_string())?;
        self.arm(&mut sim, self.observed())?;
        sim.warm_up(spec.warm);
        let rep = sim.run(spec.meas);
        let doc = run_report_json(&rep, sim.observer(), &RunManifest::default(), None);
        Ok(match sim.attribution() {
            Some(attr) => {
                digest::observed_run(&doc, &prof_report_json(attr, &RunManifest::default()))
            }
            None => digest::run_report(&doc),
        })
    }

    /// The digest recorded for this workload at the default seed and
    /// full length: it pins the simulated statistics across commits, so
    /// a change that claims only host speed cannot move them.
    pub fn recorded_digest(&self) -> Option<&'static str> {
        if self.seed != DEFAULT_SEED || self.scale != 1 {
            return None;
        }
        RECORDED_DIGESTS
            .iter()
            .find(|(name, _)| *name == self.wl.name)
            .map(|(_, d)| *d)
    }
}

/// Output digests of the full-length workloads at [`DEFAULT_SEED`].
const RECORDED_DIGESTS: [(&str, &str); 4] = [
    ("uni-base", "b3b63b7022e5e572"),
    ("mp8-all-rac", "77427e4b283a263e"),
    ("uni-ooo-observed", "a4b33963af4bd99a"),
    ("sweep-fig09", "cb9d8d23f6003389"),
];

/// The sweep plan in the TOML dialect `csim --sweep` reads.
fn plan_toml(plan: &SweepPlan) -> String {
    let list = |items: Vec<String>| items.join(", ");
    format!(
        "[sweep]\nname = \"{}\"\nwarm = {}\nmeas = {}\n\n[grid]\nintegration = [{}]\nl2 = [{}]\nnodes = [{}]\ncores = [{}]\nseeds = [{}]\n",
        plan.name,
        plan.warm,
        plan.meas,
        list(plan.integration.iter().map(|&l| format!("\"{}\"", integration_short_name(l))).collect()),
        list(plan.l2.iter().map(|s| format!("\"{}\"", s.label)).collect()),
        list(plan.nodes.iter().map(usize::to_string).collect()),
        list(plan.cores.iter().map(usize::to_string).collect()),
        list(plan.seeds.iter().map(u64::to_string).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_plan_parses_back_to_the_same_plan() {
        let inst = Instance::new(by_name("sweep-fig09").unwrap(), 7, 1);
        let plan = inst.plan.as_ref().unwrap();
        assert_eq!(&SweepPlan::from_toml_str(&plan_toml(plan)).unwrap(), plan);
        assert_eq!(inst.specs.len(), 4);
        assert_eq!(inst.refs(), 4 * 8 * 150_000);
    }

    #[test]
    fn the_fault_plan_parses() {
        FaultPlan::from_toml_str(FAULT_STORM_TOML).unwrap();
    }

    #[test]
    fn seed_reaches_every_input() {
        let inst = Instance::new(by_name("uni-ooo-observed").unwrap(), 99, 1);
        let args = inst.csim_args(Path::new("d"));
        let after = |flag: &str| {
            args.iter()
                .position(|a| a == flag)
                .map(|i| args[i + 1].as_str())
        };
        assert_eq!(after("--seed"), Some("99"));
        assert_eq!(after("--fault-seed"), Some("99"));
        let sweep = Instance::new(by_name("sweep-fig09").unwrap(), 99, 1);
        assert!(plan_toml(sweep.plan.as_ref().unwrap()).contains("seeds = [99]"));
    }

    #[test]
    fn scale_divides_every_length() {
        let full = Instance::new(by_name("mp8-all-rac").unwrap(), 1, 1);
        let quick = Instance::new(by_name("mp8-all-rac").unwrap(), 1, 50);
        assert_eq!(quick.specs[0].meas * 50, full.specs[0].meas);
        assert_eq!(quick.specs[0].warm * 50, full.specs[0].warm);
    }
}
