//! Self-describing, round-trippable sweep recipes — the lease payload.
//!
//! A worker process cannot receive a [`SweepSet`] by reference: it rebuilds
//! the sweep from a *recipe* — seed, shape, and platform fingerprint — and
//! the determinism of the scenario layer guarantees the rebuilt sweep's
//! cells are **bit-identical** to the dispatcher's. The recipe types here
//! make that implicit property explicit and testable:
//!
//! * [`PlatformSpec`] names a platform constructor (plus its TDP parameter);
//! * [`GovernorSpec`] names a governor — a built-in registry entry or the
//!   default-calibrated SysScale policy;
//! * [`WorkloadsSpec`] names a workload list — the SPEC CPU2006 suite, a
//!   named subset, or a seeded synthetic population
//!   ([`PopulationSource`]-shaped: generator config + count);
//! * [`MatrixRecipe`] is one `workloads × governors` matrix on one platform
//!   (a [`ScenarioSet`]); [`SweepRecipe`] is an ordered list of matrices
//!   plus the sharding strategy (a [`SweepSet`]).
//!
//! [`SweepRecipe::encode`] embeds each member's [`platform_fingerprint`];
//! [`MatrixRecipe::build`] re-derives the fingerprint and fails on mismatch,
//! so a dispatcher and worker built from drifted platform tables refuse to
//! cooperate instead of silently merging incompatible results.

use std::sync::Arc;

use sysscale::types::{SimError, SimResult, SimTime};
use sysscale::{
    platform_fingerprint, sysscale_factory, DemandPredictor, GovernorFactory, GovernorRegistry,
    Scenario, ScenarioSet, SocConfig, SweepSet, SweepSharding,
};
use sysscale_workloads::{
    spec_cpu2006_suite, spec_workload, GeneratorConfig, PopulationSource, Workload, WorkloadSource,
};

use crate::wire::{Dec, Enc, WireError};

/// Magic prefix of an encoded [`SweepRecipe`] (`"SSWR"`).
pub const RECIPE_MAGIC: u32 = 0x5353_5752;

/// Version of the recipe encoding. Bump on any layout change; decode
/// rejects mismatches.
pub const RECIPE_VERSION: u16 = 1;

/// A platform configuration, by constructor name plus parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum PlatformSpec {
    /// [`SocConfig::skylake_default`].
    SkylakeDefault,
    /// [`SocConfig::skylake_m_6y75`] at the given TDP (watts).
    SkylakeM6y75 {
        /// Thermal design power, watts.
        tdp_w: f64,
    },
    /// [`SocConfig::skylake_ddr4`] at the given TDP (watts).
    SkylakeDdr4 {
        /// Thermal design power, watts.
        tdp_w: f64,
    },
    /// [`SocConfig::skylake_three_point`] at the given TDP (watts).
    SkylakeThreePoint {
        /// Thermal design power, watts.
        tdp_w: f64,
    },
}

impl PlatformSpec {
    /// Materializes the platform configuration.
    #[must_use]
    pub fn build(&self) -> SocConfig {
        use sysscale::types::Power;
        match self {
            PlatformSpec::SkylakeDefault => SocConfig::skylake_default(),
            PlatformSpec::SkylakeM6y75 { tdp_w } => {
                SocConfig::skylake_m_6y75(Power::from_watts(*tdp_w))
            }
            PlatformSpec::SkylakeDdr4 { tdp_w } => {
                SocConfig::skylake_ddr4(Power::from_watts(*tdp_w))
            }
            PlatformSpec::SkylakeThreePoint { tdp_w } => {
                SocConfig::skylake_three_point(Power::from_watts(*tdp_w))
            }
        }
    }

    fn encode(&self, enc: &mut Enc) {
        match self {
            PlatformSpec::SkylakeDefault => enc.put_u8(0),
            PlatformSpec::SkylakeM6y75 { tdp_w } => {
                enc.put_u8(2);
                enc.put_f64(*tdp_w);
            }
            PlatformSpec::SkylakeDdr4 { tdp_w } => {
                enc.put_u8(3);
                enc.put_f64(*tdp_w);
            }
            PlatformSpec::SkylakeThreePoint { tdp_w } => {
                enc.put_u8(4);
                enc.put_f64(*tdp_w);
            }
        }
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, WireError> {
        Ok(match dec.u8()? {
            0 => PlatformSpec::SkylakeDefault,
            2 => PlatformSpec::SkylakeM6y75 { tdp_w: dec.f64()? },
            3 => PlatformSpec::SkylakeDdr4 { tdp_w: dec.f64()? },
            4 => PlatformSpec::SkylakeThreePoint { tdp_w: dec.f64()? },
            tag => return Err(WireError::malformed(format!("platform tag {tag}"))),
        })
    }
}

/// A governor, by name.
#[derive(Debug, Clone, PartialEq)]
pub enum GovernorSpec {
    /// A named entry of [`GovernorRegistry::builtin`] (`"baseline"`,
    /// `"md-dvfs"`, …).
    Registry(String),
    /// The SysScale governor with the default-calibrated Skylake predictor
    /// ([`DemandPredictor::skylake_default`]) — the common evaluation
    /// column, which is not a registry entry because it carries a predictor.
    SysScaleDefault,
}

impl GovernorSpec {
    /// The governor name this spec resolves to (the run-record column key).
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            GovernorSpec::Registry(name) => name,
            GovernorSpec::SysScaleDefault => "sysscale",
        }
    }

    /// Resolves the spec to a governor factory.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an unknown registry name.
    pub fn resolve(&self) -> SimResult<Arc<dyn GovernorFactory>> {
        match self {
            GovernorSpec::Registry(name) => GovernorRegistry::builtin().resolve(name),
            GovernorSpec::SysScaleDefault => {
                Ok(sysscale_factory(DemandPredictor::skylake_default()))
            }
        }
    }

    fn encode(&self, enc: &mut Enc) {
        match self {
            GovernorSpec::Registry(name) => {
                enc.put_u8(0);
                enc.put_str(name);
            }
            GovernorSpec::SysScaleDefault => enc.put_u8(1),
        }
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, WireError> {
        Ok(match dec.u8()? {
            0 => GovernorSpec::Registry(dec.str()?),
            1 => GovernorSpec::SysScaleDefault,
            tag => return Err(WireError::malformed(format!("governor tag {tag}"))),
        })
    }
}

/// A workload list, by recipe rather than by value.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadsSpec {
    /// The full single-threaded SPEC CPU2006 suite
    /// ([`spec_cpu2006_suite`]).
    SpecSuite,
    /// Named SPEC workloads ([`spec_workload`]), in order.
    SpecNamed(Vec<String>),
    /// A seeded synthetic population — the [`PopulationSource`] recipe:
    /// `count` workloads generated from `config` (whose seed makes the
    /// stream replayable).
    Population {
        /// Generator configuration (seed, phase duration, sampling ranges).
        config: GeneratorConfig,
        /// Number of workloads the population yields.
        count: usize,
    },
}

impl WorkloadsSpec {
    /// Materializes the workload list.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an unknown SPEC name.
    pub fn build(&self) -> SimResult<Vec<Workload>> {
        match self {
            WorkloadsSpec::SpecSuite => Ok(spec_cpu2006_suite()),
            WorkloadsSpec::SpecNamed(names) => names
                .iter()
                .map(|name| {
                    spec_workload(name).ok_or_else(|| {
                        SimError::invalid_config(format!("unknown SPEC workload '{name}'"))
                    })
                })
                .collect(),
            WorkloadsSpec::Population { config, count } => {
                Ok(PopulationSource::new(*config, *count).materialize())
            }
        }
    }

    /// Number of workloads without materializing them.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            WorkloadsSpec::SpecSuite => spec_cpu2006_suite().len(),
            WorkloadsSpec::SpecNamed(names) => names.len(),
            WorkloadsSpec::Population { count, .. } => *count,
        }
    }

    /// Whether the list is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn encode(&self, enc: &mut Enc) {
        match self {
            WorkloadsSpec::SpecSuite => enc.put_u8(0),
            WorkloadsSpec::SpecNamed(names) => {
                enc.put_u8(1);
                enc.put_u32(names.len() as u32);
                for name in names {
                    enc.put_str(name);
                }
            }
            WorkloadsSpec::Population { config, count } => {
                enc.put_u8(2);
                enc.put_u64(config.seed);
                enc.put_f64(config.phase_duration.as_secs());
                enc.put_f64(config.cpi_range.0);
                enc.put_f64(config.cpi_range.1);
                enc.put_f64(config.mpki_range.0);
                enc.put_f64(config.mpki_range.1);
                enc.put_f64(config.blocking_range.0);
                enc.put_f64(config.blocking_range.1);
                enc.put_f64(config.multithread_probability);
                enc.put_usize(*count);
            }
        }
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, WireError> {
        Ok(match dec.u8()? {
            0 => WorkloadsSpec::SpecSuite,
            1 => {
                let count = dec.u32()?;
                let mut names = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    names.push(dec.str()?);
                }
                WorkloadsSpec::SpecNamed(names)
            }
            2 => {
                let config = GeneratorConfig {
                    seed: dec.u64()?,
                    phase_duration: SimTime::from_secs(dec.f64()?),
                    cpi_range: (dec.f64()?, dec.f64()?),
                    mpki_range: (dec.f64()?, dec.f64()?),
                    blocking_range: (dec.f64()?, dec.f64()?),
                    multithread_probability: dec.f64()?,
                };
                let count = dec.usize()?;
                WorkloadsSpec::Population { config, count }
            }
            tag => return Err(WireError::malformed(format!("workloads tag {tag}"))),
        })
    }
}

/// One `workloads × governors` matrix on one platform — the recipe of a
/// [`ScenarioSet`] built the way [`ScenarioSet::matrix_with`] builds it
/// (governors outer, workloads inner, one shared workload handle per row).
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixRecipe {
    /// The platform every cell runs on.
    pub platform: PlatformSpec,
    /// The workload rows.
    pub workloads: WorkloadsSpec,
    /// The governor columns.
    pub governors: Vec<GovernorSpec>,
    /// The designated baseline governor for relative deltas, if any.
    pub baseline: Option<String>,
    /// Explicit simulated duration in seconds (`None` = per-workload
    /// [`sysscale::auto_duration`]).
    pub duration_secs: Option<f64>,
    /// Expected [`platform_fingerprint`] of the built platform. `None` until
    /// the recipe crosses a process boundary; [`SweepRecipe::encode`] pins
    /// the current fingerprint so [`MatrixRecipe::build`] on the far side
    /// can detect dispatcher/worker platform-table drift.
    pub pinned_fingerprint: Option<u64>,
}

impl MatrixRecipe {
    /// The matrix's cell count (`workloads × governors`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.workloads.len() * self.governors.len()
    }

    /// Whether the matrix has no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The [`platform_fingerprint`] of the (freshly built) platform.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        platform_fingerprint(&self.platform.build())
    }

    /// Materializes the scenario matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for unknown governor or workload
    /// names, or when a pinned fingerprint does not match the platform this
    /// process builds (dispatcher/worker drift).
    pub fn build(&self) -> SimResult<ScenarioSet> {
        let config = self.platform.build();
        if let Some(expected) = self.pinned_fingerprint {
            let got = platform_fingerprint(&config);
            if got != expected {
                return Err(SimError::invalid_config(format!(
                    "platform fingerprint mismatch: recipe pinned {expected:#018x}, \
                     this process builds {got:#018x} — dispatcher and worker binaries \
                     disagree on {:?}",
                    self.platform
                )));
            }
        }
        let shared: Vec<Arc<Workload>> =
            self.workloads.build()?.into_iter().map(Arc::new).collect();
        let mut set = ScenarioSet::new();
        for governor in &self.governors {
            let factory = governor.resolve()?;
            for workload in &shared {
                let mut builder = Scenario::builder(Arc::clone(workload))
                    .config(config.clone())
                    .governor_factory(Arc::clone(&factory));
                if let Some(secs) = self.duration_secs {
                    builder = builder.duration(SimTime::from_secs(secs));
                }
                set.push(builder.build()?);
            }
        }
        Ok(match &self.baseline {
            Some(governor) => set.with_baseline(governor),
            None => set,
        })
    }

    fn encode(&self, enc: &mut Enc) {
        self.platform.encode(enc);
        self.workloads.encode(enc);
        enc.put_u32(self.governors.len() as u32);
        for governor in &self.governors {
            governor.encode(enc);
        }
        match &self.baseline {
            Some(name) => {
                enc.put_bool(true);
                enc.put_str(name);
            }
            None => enc.put_bool(false),
        }
        match self.duration_secs {
            Some(secs) => {
                enc.put_bool(true);
                enc.put_f64(secs);
            }
            None => enc.put_bool(false),
        }
        // Always pin: the decoding side must be able to detect drift.
        enc.put_u64(
            self.pinned_fingerprint
                .unwrap_or_else(|| self.fingerprint()),
        );
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, WireError> {
        let platform = PlatformSpec::decode(dec)?;
        let workloads = WorkloadsSpec::decode(dec)?;
        let governor_count = dec.u32()?;
        let mut governors = Vec::with_capacity(governor_count as usize);
        for _ in 0..governor_count {
            governors.push(GovernorSpec::decode(dec)?);
        }
        let baseline = if dec.bool()? { Some(dec.str()?) } else { None };
        let duration_secs = if dec.bool()? { Some(dec.f64()?) } else { None };
        let pinned_fingerprint = Some(dec.u64()?);
        Ok(Self {
            platform,
            workloads,
            governors,
            baseline,
            duration_secs,
            pinned_fingerprint,
        })
    }
}

/// The recipe of a whole [`SweepSet`]: ordered member matrices plus the
/// sharding strategy. This is what crosses the wire in a
/// [`crate::proto::Message::Job`]; both dispatcher and worker call
/// [`SweepRecipe::build`] and rely on scenario-layer determinism for the
/// rebuilt sweeps to agree cell-for-cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRecipe {
    /// The member matrices, in sweep order.
    pub members: Vec<MatrixRecipe>,
    /// How flat cells map to workers (the dispatcher uses this for lease
    /// assignment; workers use their own thread-level round-robin).
    pub sharding: SweepSharding,
}

impl SweepRecipe {
    /// A single-member sweep.
    #[must_use]
    pub fn single(member: MatrixRecipe) -> Self {
        Self {
            members: vec![member],
            sharding: SweepSharding::ByPlatform,
        }
    }

    /// The Fig. 10 sweep shape: for each TDP, a
    /// `SPEC suite × {baseline, sysscale}` matrix on the Skylake m3-6Y75
    /// platform with `baseline` as the designated baseline.
    #[must_use]
    pub fn fig10(tdps_w: &[f64]) -> Self {
        let members = tdps_w
            .iter()
            .map(|&tdp_w| MatrixRecipe {
                platform: PlatformSpec::SkylakeM6y75 { tdp_w },
                workloads: WorkloadsSpec::SpecSuite,
                governors: vec![
                    GovernorSpec::Registry("baseline".to_string()),
                    GovernorSpec::SysScaleDefault,
                ],
                baseline: Some("baseline".to_string()),
                duration_secs: None,
                pinned_fingerprint: None,
            })
            .collect();
        Self {
            members,
            sharding: SweepSharding::ByPlatform,
        }
    }

    /// Total cell count across all members.
    #[must_use]
    pub fn total_cells(&self) -> usize {
        self.members.iter().map(MatrixRecipe::len).sum()
    }

    /// A 64-bit content fingerprint of the encoded recipe (FNV-1a over
    /// [`SweepRecipe::encode`]), including the pinned platform fingerprints.
    /// [`crate::journal::SweepJournal`] keys checkpoint files by it, so a
    /// journal left by a *different* sweep — or by the same sweep on a
    /// drifted binary — is ignored instead of replayed.
    #[must_use]
    pub fn fingerprint64(&self) -> u64 {
        crate::net::fnv1a64(&self.encode())
    }

    /// Serializes the recipe, pinning every member's platform fingerprint.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.put_u32(RECIPE_MAGIC);
        enc.put_u16(RECIPE_VERSION);
        enc.put_u8(match self.sharding {
            SweepSharding::RoundRobin => 0,
            SweepSharding::ByPlatform => 1,
        });
        enc.put_u32(self.members.len() as u32);
        for member in &self.members {
            member.encode(&mut enc);
        }
        enc.into_bytes()
    }

    /// Deserializes a recipe.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Malformed`] on bad magic, an unknown version,
    /// an unknown sharding tag, or any malformed member.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut dec = Dec::new(bytes);
        let magic = dec.u32()?;
        if magic != RECIPE_MAGIC {
            return Err(WireError::malformed(format!(
                "bad recipe magic {magic:#010x}"
            )));
        }
        let version = dec.u16()?;
        if version != RECIPE_VERSION {
            return Err(WireError::malformed(format!(
                "recipe version {version} (this build speaks {RECIPE_VERSION})"
            )));
        }
        let sharding = match dec.u8()? {
            0 => SweepSharding::RoundRobin,
            1 => SweepSharding::ByPlatform,
            tag => return Err(WireError::malformed(format!("sharding tag {tag}"))),
        };
        let member_count = dec.u32()?;
        let mut members = Vec::with_capacity(member_count as usize);
        for _ in 0..member_count {
            members.push(MatrixRecipe::decode(&mut dec)?);
        }
        dec.finish()?;
        Ok(Self { members, sharding })
    }

    /// Materializes every member matrix, in order. Assemble them into a
    /// [`SweepSet`] with [`sweep_from_sets`].
    ///
    /// # Errors
    ///
    /// Propagates the first member's build error.
    pub fn build(&self) -> SimResult<Vec<ScenarioSet>> {
        self.members.iter().map(MatrixRecipe::build).collect()
    }
}

/// Assembles built member sets into a [`SweepSet`] (borrowing the sets).
#[must_use]
pub fn sweep_from_sets(sets: &[ScenarioSet]) -> SweepSet<'_> {
    let mut sweep = SweepSet::new();
    for set in sets {
        sweep.push_set_ref(set);
    }
    sweep
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysscale_types::rng::SplitMix64;

    fn scenarios_identical(a: &Scenario, b: &Scenario) -> bool {
        a.config() == b.config()
            && a.workload() == b.workload()
            && a.governor().name() == b.governor().name()
            && a.duration() == b.duration()
            && a.traced() == b.traced()
    }

    fn assert_sets_identical(a: &ScenarioSet, b: &ScenarioSet) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.baseline(), b.baseline());
        for (x, y) in a.scenarios().iter().zip(b.scenarios()) {
            assert!(scenarios_identical(x, y), "scenario mismatch");
        }
    }

    #[test]
    fn fig10_recipe_round_trips_and_rebuilds_identical_scenarios() {
        let recipe = SweepRecipe::fig10(&[4.5, 7.5]);
        let decoded = SweepRecipe::decode(&recipe.encode()).expect("decode");
        assert_eq!(decoded.sharding, recipe.sharding);
        assert_eq!(decoded.members.len(), recipe.members.len());
        let original = recipe.build().expect("build original");
        let rebuilt = decoded.build().expect("build decoded");
        for (a, b) in original.iter().zip(&rebuilt) {
            assert_sets_identical(a, b);
        }
        assert_eq!(decoded.total_cells(), recipe.total_cells());
    }

    /// Satellite: a decoded population recipe regenerates **byte-identical**
    /// scenarios — workloads, platform, governor, and duration all equal —
    /// across sampled seeds and shapes.
    #[test]
    fn population_recipes_regenerate_identical_scenarios_property() {
        let mut rng = SplitMix64::new(0xD157_121B);
        for _ in 0..8 {
            let seed = rng.next_u64();
            let count = 1 + (rng.next_u64() % 7) as usize;
            let tdp_w = 3.0 + rng.gen_range(0.0, 9.0);
            let config = GeneratorConfig {
                seed,
                ..GeneratorConfig::default()
            };
            let member = MatrixRecipe {
                platform: PlatformSpec::SkylakeM6y75 { tdp_w },
                workloads: WorkloadsSpec::Population { config, count },
                governors: vec![
                    GovernorSpec::Registry("baseline".to_string()),
                    GovernorSpec::SysScaleDefault,
                ],
                baseline: Some("baseline".to_string()),
                duration_secs: Some(0.25),
                pinned_fingerprint: None,
            };
            let recipe = SweepRecipe::single(member);
            let decoded = SweepRecipe::decode(&recipe.encode()).expect("decode");
            assert_eq!(decoded.members[0].workloads, recipe.members[0].workloads);
            let original = recipe.build().expect("build original");
            let rebuilt = decoded.build().expect("build decoded");
            assert_sets_identical(&original[0], &rebuilt[0]);
            // The population really is the PopulationSource stream.
            let direct = PopulationSource::new(config, count).materialize();
            let from_recipe = WorkloadsSpec::Population { config, count }
                .build()
                .expect("population build");
            assert_eq!(direct, from_recipe, "seed {seed:#x}");
        }
    }

    #[test]
    fn pinned_fingerprint_mismatch_is_rejected() {
        let mut member = SweepRecipe::fig10(&[6.0]).members.remove(0);
        member.pinned_fingerprint = Some(member.fingerprint() ^ 1);
        let err = member.build().expect_err("drifted fingerprint must fail");
        assert!(
            format!("{err}").contains("fingerprint mismatch"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn sharding_tags_are_pinned_and_unknown_tags_rejected() {
        // The sharding tag is the byte after the magic (4) and version (2).
        const TAG: usize = 6;
        let mut recipe = SweepRecipe::fig10(&[3.5, 4.5]);
        // Journals are keyed by this fingerprint: the encoding of the
        // surviving tags must never move it.
        assert_eq!(recipe.fingerprint64(), 0x2EDB_17C2_2A7C_ACCB);
        for (sharding, tag) in [
            (SweepSharding::RoundRobin, 0),
            (SweepSharding::ByPlatform, 1),
        ] {
            recipe.sharding = sharding;
            let bytes = recipe.encode();
            assert_eq!(bytes[TAG], tag, "{sharding:?}");
            assert_eq!(
                SweepRecipe::decode(&bytes).expect("decode").sharding,
                sharding
            );
        }
        let bytes = recipe.encode();
        for tag in 2..=u8::MAX {
            let mut bytes = bytes.clone();
            bytes[TAG] = tag;
            match SweepRecipe::decode(&bytes) {
                Err(WireError::Malformed(msg)) => {
                    assert!(msg.contains(&format!("sharding tag {tag}")), "{msg}");
                }
                other => panic!("tag {tag} must be malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_recipes_are_rejected() {
        assert!(SweepRecipe::decode(&[]).is_err());
        // Bad magic.
        let mut bytes = SweepRecipe::fig10(&[5.0]).encode();
        bytes[0] ^= 0xFF;
        assert!(SweepRecipe::decode(&bytes).is_err());
        // Bad version.
        let mut bytes = SweepRecipe::fig10(&[5.0]).encode();
        bytes[4] ^= 0xFF;
        assert!(SweepRecipe::decode(&bytes).is_err());
        // Truncated member list.
        let bytes = SweepRecipe::fig10(&[5.0]).encode();
        assert!(SweepRecipe::decode(&bytes[..bytes.len() - 3]).is_err());
        // Unknown SPEC name fails at build, not decode.
        let recipe = SweepRecipe::single(MatrixRecipe {
            platform: PlatformSpec::SkylakeDefault,
            workloads: WorkloadsSpec::SpecNamed(vec!["not-a-benchmark".to_string()]),
            governors: vec![GovernorSpec::Registry("baseline".to_string())],
            baseline: None,
            duration_secs: None,
            pinned_fingerprint: None,
        });
        let decoded = SweepRecipe::decode(&recipe.encode()).expect("decode");
        assert!(decoded.build().is_err());
    }
}
