//! The device factory (DESIGN.md §11): one enum naming every simulated
//! machine configuration the paper's evaluation uses, with a single place
//! that constructs the boxed [`MdDevice`] for it.
//!
//! Binaries and the sweep engine hold [`DeviceKind`] values — plain,
//! copyable data — and only call [`DeviceKind::build`] at the moment a run
//! actually executes. [`DeviceKind::cache_token`] is the device half of a
//! sweep-cache key: it encodes both the configuration knobs *and* the
//! machine constants the factory bakes in, so editing a device's clock or
//! pipe count invalidates exactly that device's cached points.

use cell_be::{
    CellAccelProbe, CellBeDevice, CellConfig, CellMd, CellPpeMd, CellRunConfig, SpawnPolicy,
    SpeKernelVariant,
};
use gpu::{GpuConfig, GpuMdSimulation};
use md_core::device::MdDevice;
use mta::{MtaConfig, MtaMd, ThreadingMode};
use opteron::{OpteronConfig, OpteronCpu};

/// The GPU generations the paper compares (section 5.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GpuModel {
    GeForce7900Gtx,
    GeForce6800,
}

impl GpuModel {
    fn config(self) -> GpuConfig {
        match self {
            GpuModel::GeForce7900Gtx => GpuConfig::geforce_7900gtx(),
            GpuModel::GeForce6800 => GpuConfig::geforce_6800(),
        }
    }
}

/// Every device configuration the evaluation grid can name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceKind {
    /// The Cell blade running the SPE-offload port.
    Cell {
        n_spes: usize,
        policy: SpawnPolicy,
        variant: SpeKernelVariant,
    },
    /// The PPE-only baseline (Table 1's slowest row).
    CellPpe,
    /// The Figure 5 single-SPE force-evaluation probe (steps must be 0).
    CellAccel {
        variant: SpeKernelVariant,
    },
    Gpu {
        model: GpuModel,
    },
    Mta {
        mode: ThreadingMode,
    },
    /// The 2.2 GHz Opteron reference machine.
    Opteron,
}

impl DeviceKind {
    /// The Cell blade in an arbitrary run configuration.
    pub fn cell(run: CellRunConfig) -> Self {
        DeviceKind::Cell {
            n_spes: run.n_spes,
            policy: run.policy,
            variant: run.variant,
        }
    }

    /// The paper's best Cell configuration (8 SPEs, launch-once, full SIMD).
    pub fn cell_best() -> Self {
        Self::cell(CellRunConfig::best())
    }

    /// The best configuration restricted to one SPE.
    pub fn cell_single_spe() -> Self {
        Self::cell(CellRunConfig::single_spe())
    }

    /// The Cell run configuration for the `Cell` variant.
    fn cell_run_config(self) -> Option<CellRunConfig> {
        match self {
            DeviceKind::Cell {
                n_spes,
                policy,
                variant,
            } => Some(CellRunConfig {
                n_spes,
                policy,
                variant,
            }),
            _ => None,
        }
    }

    /// The device's metric/cache label — identical to what
    /// [`MdDevice::label`] on the built device returns.
    pub fn label(self) -> String {
        match self {
            DeviceKind::Cell { n_spes, .. } => format!("cell-{n_spes}spe"),
            DeviceKind::CellPpe => "cell-ppe".to_string(),
            DeviceKind::CellAccel { variant } => {
                format!("cell-1spe-{}", variant.label().replace(' ', "-"))
            }
            DeviceKind::Gpu {
                model: GpuModel::GeForce7900Gtx,
            } => "gpu-7900gtx".to_string(),
            DeviceKind::Gpu {
                model: GpuModel::GeForce6800,
            } => "gpu-6800".to_string(),
            DeviceKind::Mta {
                mode: ThreadingMode::FullyMultithreaded,
            } => "mta2-full-mt".to_string(),
            DeviceKind::Mta {
                mode: ThreadingMode::PartiallyMultithreaded,
            } => "mta2-partial-mt".to_string(),
            DeviceKind::Opteron => "opteron".to_string(),
        }
    }

    /// Stable text encoding of the full device identity for cache keys:
    /// configuration knobs plus *every* machine constant the factory bakes
    /// in. Any change to either must change this string (and thereby
    /// invalidate cached results for this device). The `cache-token` lint
    /// rule enforces completeness: each field of each cost-model struct
    /// reachable from here must appear in the encoding, recursively.
    pub fn cache_token(self) -> String {
        // Cell machine constants, shared by the three Cell-family arms.
        let c = CellConfig::paper_blade();
        let cell_hw = format!(
            "clk={},nspes_max={},ls={},dma_lat={},dma_bpc={},dma_max={},mbox={},spawn={},ppe_svc={},ppe_cpi={}",
            c.clock_hz,
            c.n_spes,
            c.local_store_bytes,
            c.dma_latency_cycles,
            c.dma_bytes_per_cycle,
            c.dma_max_transfer,
            c.mailbox_cycles,
            c.spawn_cycles,
            c.ppe_service_cycles,
            c.ppe_cpi_factor,
        );
        let k = &c.costs;
        let cell_costs = format!(
            "rbr={},rcs={},rsi={},dsc={},dsi={},lsc={},lsi={},cut={},pld={},lj={},asc={},asi={},pa={},dpp={}",
            k.reflect_branchy,
            k.reflect_copysign,
            k.reflect_simd,
            k.direction_scalar,
            k.direction_simd,
            k.length_scalar,
            k.length_simd,
            k.cutoff_test,
            k.pair_loads,
            k.lj_eval,
            k.accel_scalar,
            k.accel_simd,
            k.per_atom,
            k.dp_penalty,
        );
        match self {
            DeviceKind::Cell {
                n_spes,
                policy,
                variant,
            } => format!(
                "cell:nspes={n_spes},policy={policy:?},variant={variant:?},{cell_hw},{cell_costs}"
            ),
            DeviceKind::CellPpe => format!("cell-ppe:{cell_hw},{cell_costs}"),
            DeviceKind::CellAccel { variant } => {
                format!("cell-accel:variant={variant:?},{cell_hw},{cell_costs}")
            }
            DeviceKind::Gpu { model } => {
                let g: GpuConfig = model.config();
                format!(
                    "gpu:model={model:?},clk={},pipes={},up_bps={},rd_bps={},xfer_lat={},disp={},jit={},cpu_lin={},max_tex={}",
                    g.clock_hz,
                    g.n_pipes,
                    g.upload_bytes_per_sec,
                    g.readback_bytes_per_sec,
                    g.transfer_latency_s,
                    g.dispatch_overhead_s,
                    g.jit_startup_s,
                    g.cpu_linear_s_per_atom,
                    g.max_input_textures,
                )
            }
            DeviceKind::Mta { mode } => {
                let m = MtaConfig::paper_mta2();
                let remote = match &m.remote_memory {
                    Some(r) => format!(
                        "rm_frac={},rm_extra={}",
                        r.remote_fraction, r.remote_extra_cycles
                    ),
                    None => "rm=none".to_string(),
                };
                format!(
                    "mta:mode={mode:?},clk={},streams={},procs={},issue={},loop_start={},sync={},{remote}",
                    m.clock_hz,
                    m.streams_per_processor,
                    m.n_processors,
                    m.stream_issue_interval,
                    m.loop_startup_cycles,
                    m.sync_instructions,
                )
            }
            DeviceKind::Opteron => {
                let o = OpteronConfig::paper_reference();
                let h = &o.memory;
                format!(
                    "opteron:clk={},cpf={},loop_ovh={},prefetch={},l1={}:{}:{},l2={}:{}:{},l1hit={},l2hit={},dram={}",
                    o.clock_hz,
                    o.cycles_per_flop,
                    o.loop_overhead_cycles,
                    o.prefetch,
                    h.l1.size_bytes,
                    h.l1.line_bytes,
                    h.l1.associativity,
                    h.l2.size_bytes,
                    h.l2.line_bytes,
                    h.l2.associativity,
                    h.l1_hit_cycles,
                    h.l2_hit_cycles,
                    h.dram_cycles,
                )
            }
        }
    }

    /// Every kind [`DeviceKind`]'s [`FromStr`](std::str::FromStr) impl can
    /// produce, one per parseable label. The parse grammar and this list are
    /// maintained together: a label parses if and only if a kind here
    /// displays as it.
    pub fn parseable_roster() -> Vec<DeviceKind> {
        let mut all = vec![
            DeviceKind::CellPpe,
            DeviceKind::Gpu {
                model: GpuModel::GeForce7900Gtx,
            },
            DeviceKind::Gpu {
                model: GpuModel::GeForce6800,
            },
            DeviceKind::Mta {
                mode: ThreadingMode::FullyMultithreaded,
            },
            DeviceKind::Mta {
                mode: ThreadingMode::PartiallyMultithreaded,
            },
            DeviceKind::Opteron,
        ];
        for n_spes in 1..=CellConfig::paper_blade().n_spes {
            all.push(DeviceKind::cell(CellRunConfig {
                n_spes,
                ..CellRunConfig::best()
            }));
        }
        for variant in SpeKernelVariant::ALL {
            all.push(DeviceKind::CellAccel { variant });
        }
        all
    }

    /// Construct the simulated machine. This is the only place in the
    /// harness that builds concrete device types; everything downstream
    /// drives the trait object.
    pub fn build(self) -> Box<dyn MdDevice> {
        match self {
            DeviceKind::Cell { .. } => Box::new(CellMd::paper_blade(
                self.cell_run_config().expect("cell variant"),
            )),
            DeviceKind::CellPpe => Box::new(CellPpeMd::paper_blade()),
            DeviceKind::CellAccel { variant } => Box::new(CellAccelProbe::paper_blade(variant)),
            DeviceKind::Gpu { model } => Box::new(GpuMdSimulation::new(model.config())),
            DeviceKind::Mta { mode } => Box::new(MtaMd::paper_mta2(mode)),
            DeviceKind::Opteron => Box::new(OpteronCpu::paper_reference()),
        }
    }

    /// Whether the kind's physics is the f64 host flavor (the Opteron and
    /// both MTA-2 modes): its device is a [`HostPricer`]
    /// ([`MdDevice::as_host_pricer`]) and drives no physics of its own, so
    /// points of one workload can share one trajectory
    /// ([`crate::host_group_metrics`]).
    ///
    /// [`HostPricer`]: md_core::device::HostPricer
    pub fn prices_host_trajectory(self) -> bool {
        matches!(self, DeviceKind::Mta { .. } | DeviceKind::Opteron)
    }

    /// [`DeviceKind::build`] with a deterministic fault schedule armed.
    /// The PPE-only and Figure 5 probe paths are fault-free by design; the
    /// plan is ignored there.
    pub fn build_faulted(self, plan: sim_fault::FaultPlan) -> Box<dyn MdDevice> {
        match self {
            DeviceKind::Cell { .. } => Box::new(CellMd::new(
                CellBeDevice::paper_blade().with_fault_plan(plan),
                self.cell_run_config().expect("cell variant"),
            )),
            DeviceKind::CellPpe | DeviceKind::CellAccel { .. } => self.build(),
            DeviceKind::Gpu { model } => {
                Box::new(GpuMdSimulation::new(model.config()).with_fault_plan(plan))
            }
            DeviceKind::Mta { mode } => Box::new(MtaMd::new(
                mta::MtaMdSimulation::paper_mta2().with_fault_plan(plan),
                mode,
            )),
            DeviceKind::Opteron => Box::new(OpteronCpu::paper_reference().with_fault_plan(plan)),
        }
    }
}

impl std::fmt::Display for DeviceKind {
    /// Renders [`DeviceKind::label`] — `Display` and `FromStr` round-trip
    /// through the label grammar, so every printed device name is also a
    /// valid `--device` argument.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// A device name that [`DeviceKind`]'s [`FromStr`](std::str::FromStr) impl
/// does not recognize. The message lists every label the grammar accepts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseDeviceKindError {
    pub name: String,
}

impl std::fmt::Display for ParseDeviceKindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let known: Vec<String> = DeviceKind::parseable_roster()
            .into_iter()
            .map(|k| k.label())
            .collect();
        write!(
            f,
            "unknown device '{}' (known: {})",
            self.name,
            known.join(", ")
        )
    }
}

impl std::error::Error for ParseDeviceKindError {}

impl std::str::FromStr for DeviceKind {
    type Err = ParseDeviceKindError;

    /// Parses the label grammar emitted by [`DeviceKind::label`]:
    /// `cell-<n>spe` (best-run policy and kernel variant), `cell-ppe`,
    /// `cell-1spe-<variant>` (the Figure 5 probe), `gpu-7900gtx`,
    /// `gpu-6800`, `mta2-full-mt`, `mta2-partial-mt`, and `opteron`. A few
    /// friendly aliases are accepted for CLI ergonomics (`cell`, `gpu`,
    /// `mta-full`, `mta-partial`); they parse to the canonical kind, whose
    /// `Display` is the canonical label.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        // Friendly aliases first; each maps onto a canonical kind below.
        match s {
            "cell" => return Ok(DeviceKind::cell_best()),
            "gpu" => {
                return Ok(DeviceKind::Gpu {
                    model: GpuModel::GeForce7900Gtx,
                })
            }
            "mta" | "mta-full" => {
                return Ok(DeviceKind::Mta {
                    mode: ThreadingMode::FullyMultithreaded,
                })
            }
            "mta-partial" => {
                return Ok(DeviceKind::Mta {
                    mode: ThreadingMode::PartiallyMultithreaded,
                })
            }
            _ => {}
        }
        // Canonical labels: exactly the strings `label()` can emit.
        for kind in DeviceKind::parseable_roster() {
            if kind.label() == s {
                return Ok(kind);
            }
        }
        Err(ParseDeviceKindError { name: s.into() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_core::device::RunOptions;
    use md_core::params::SimConfig;

    /// The full paper roster, one of each label.
    fn roster() -> Vec<DeviceKind> {
        vec![
            DeviceKind::cell_best(),
            DeviceKind::cell_single_spe(),
            DeviceKind::CellPpe,
            DeviceKind::CellAccel {
                variant: SpeKernelVariant::Original,
            },
            DeviceKind::Gpu {
                model: GpuModel::GeForce7900Gtx,
            },
            DeviceKind::Mta {
                mode: ThreadingMode::FullyMultithreaded,
            },
            DeviceKind::Opteron,
        ]
    }

    #[test]
    fn labels_match_built_devices() {
        for kind in roster() {
            assert_eq!(kind.label(), kind.build().label(), "{kind:?}");
        }
    }

    #[test]
    fn cache_tokens_are_unique() {
        let tokens: Vec<String> = roster().into_iter().map(DeviceKind::cache_token).collect();
        for (i, a) in tokens.iter().enumerate() {
            for b in &tokens[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn every_device_runs_through_the_factory() {
        let sim = SimConfig::reduced_lj(108);
        for kind in roster() {
            let steps = if matches!(kind, DeviceKind::CellAccel { .. }) {
                0
            } else {
                1
            };
            let run = kind
                .build()
                .run(&sim, RunOptions::steps(steps))
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert!(run.sim_seconds > 0.0, "{kind:?}");
            assert!(run.energies.total.is_finite(), "{kind:?}");
        }
    }

    #[test]
    fn every_parseable_label_round_trips() {
        // The grammar is finite, so this is exhaustive: each kind the parser
        // can produce displays to a label that parses back to the same kind.
        let all = DeviceKind::parseable_roster();
        assert!(all.len() >= 15, "roster covers the full grammar");
        for kind in all {
            let label = kind.to_string();
            assert_eq!(label, kind.label(), "Display renders label()");
            let back: DeviceKind = label.parse().unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(back, kind, "round trip through {label:?}");
        }
    }

    #[test]
    fn friendly_aliases_parse_to_canonical_kinds() {
        for (alias, want) in [
            ("cell", DeviceKind::cell_best()),
            (
                "gpu",
                DeviceKind::Gpu {
                    model: GpuModel::GeForce7900Gtx,
                },
            ),
            (
                "mta-full",
                DeviceKind::Mta {
                    mode: ThreadingMode::FullyMultithreaded,
                },
            ),
            (
                "mta-partial",
                DeviceKind::Mta {
                    mode: ThreadingMode::PartiallyMultithreaded,
                },
            ),
        ] {
            let got: DeviceKind = alias.parse().unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(got, want, "{alias}");
            // Re-parsing the canonical display is idempotent.
            assert_eq!(
                got.to_string().parse::<DeviceKind>().unwrap(),
                got,
                "{alias}"
            );
        }
    }

    #[test]
    fn unknown_names_fail_with_the_roster_in_the_message() {
        let err = "gpu-8800".parse::<DeviceKind>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("gpu-8800"), "{msg}");
        assert!(msg.contains("gpu-7900gtx"), "{msg}");
        assert!(msg.contains("opteron"), "{msg}");
    }

    proptest::proptest! {
        /// Any kind assembled from arbitrary in-range knobs — not just the
        /// canonical constructors — survives Display → FromStr, as long as
        /// its non-label knobs are the canonical ones the parser restores.
        #[test]
        fn arbitrary_knob_kinds_round_trip(
            n_spes in 1usize..9,
            variant_pick in 0usize..6,
            gpu_pick in 0usize..2,
            mta_pick in 0usize..2,
        ) {
            let variant = SpeKernelVariant::ALL[variant_pick];
            let kinds = [
                DeviceKind::cell(CellRunConfig { n_spes, ..CellRunConfig::best() }),
                DeviceKind::CellAccel { variant },
                DeviceKind::Gpu {
                    model: [GpuModel::GeForce7900Gtx, GpuModel::GeForce6800][gpu_pick],
                },
                DeviceKind::Mta {
                    mode: [
                        ThreadingMode::FullyMultithreaded,
                        ThreadingMode::PartiallyMultithreaded,
                    ][mta_pick],
                },
            ];
            for kind in kinds {
                let label = kind.to_string();
                let back: DeviceKind = label
                    .parse()
                    .map_err(|e: ParseDeviceKindError| {
                        proptest::test_runner::TestCaseError::fail(e.to_string())
                    })?;
                proptest::prop_assert_eq!(back, kind);
            }
        }
    }

    #[test]
    fn accel_probe_rejects_time_steps() {
        let sim = SimConfig::reduced_lj(108);
        let mut probe = DeviceKind::CellAccel {
            variant: SpeKernelVariant::SimdAcceleration,
        }
        .build();
        let err = probe.run(&sim, RunOptions::steps(3));
        assert!(matches!(
            err,
            Err(md_core::device::DeviceError::Unsupported(_))
        ));
    }
}
