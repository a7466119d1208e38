//! Property-based invariants of the simulator's core: the discrete-event
//! co-execution engine and the device cost model. These are the components
//! every experiment number flows through, so their invariants get
//! adversarial coverage beyond the unit tests.

use proptest::prelude::*;
use sim::cost::{cpu_group_cost, gpu_group_cost, GroupCost, ModelConstants};
use sim::des::{run_des, DesInput, GpuAgentParams, Schedule};
use sim::profile::{AccessClass, KernelProfile, SiteProfile};
use sim::{CoreSlowdown, CoreStall, FaultPlan, NdRange, PlatformConfig};

// ---------------------------------------------------------------------------
// DES invariants
// ---------------------------------------------------------------------------

fn arb_cost() -> impl Strategy<Value = GroupCost> {
    (1e-6f64..1e-2, 0.0f64..1e7, 1.0f64..20.0, 0.4f64..=1.0).prop_map(
        |(compute_s, dram_bytes, bw_cap_gbs, dram_efficiency)| GroupCost {
            compute_s,
            dram_bytes,
            bw_cap_gbs,
            dram_efficiency,
        },
    )
}

fn arb_schedule() -> impl Strategy<Value = Schedule> {
    prop_oneof![
        (2usize..50).prop_map(|d| Schedule::Dynamic { chunk_divisor: d }),
        (0.0f64..=1.0).prop_map(|f| Schedule::Static { cpu_fraction: f }),
        Just(Schedule::DynamicPull),
    ]
}

fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        prop_oneof![Just(None), (0usize..4).prop_map(Some)],
        prop::collection::vec(
            (0usize..6, 0.0f64..2e-3).prop_map(|(core, at_s)| CoreStall { core, at_s }),
            0..3,
        ),
        prop::collection::vec(
            (0usize..6, 1.0f64..6.0).prop_map(|(core, factor)| CoreSlowdown { core, factor }),
            0..3,
        ),
        prop_oneof![Just(None), (1e-4f64..1e-1).prop_map(Some)],
    )
        .prop_map(|(hang, stalls, slowdowns, watchdog)| FaultPlan {
            gpu_hang_at_dispatch: hang,
            core_stalls: stalls,
            core_slowdowns: slowdowns,
            transient_profile_failures: 0,
            watchdog_timeout_s: watchdog,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Conservation: every work-group is executed exactly once, by exactly
    /// one device, under every schedule and device mix.
    #[test]
    fn des_conserves_work(
        num_groups in 0usize..300,
        cpu_cores in 0usize..6,
        cpu_cost in arb_cost(),
        gpu_cost in arb_cost(),
        cus in 1usize..16,
        latency in 0.0f64..1e-3,
        with_gpu in any::<bool>(),
        schedule in arb_schedule(),
        bw in 5.0f64..40.0,
    ) {
        prop_assume!(cpu_cores > 0 || with_gpu);
        let input = DesInput {
            num_groups,
            cpu_cores,
            cpu_cost: if cpu_cores > 0 { Some(cpu_cost) } else { None },
            gpu: if with_gpu {
                Some(GpuAgentParams { cost: gpu_cost, cus, launch_latency_s: latency })
            } else {
                None
            },
            schedule,
            dram_bw_gbs: bw,
        };
        let r = run_des(&input, &FaultPlan::none(), None);
        prop_assert_eq!(r.cpu_groups + r.gpu_groups, num_groups);
        prop_assert!(r.time_s.is_finite() && r.time_s >= 0.0);
        prop_assert!(r.dram_bytes >= 0.0);
    }

    /// A lower bound: the makespan can never beat perfect parallelism over
    /// aggregate compute capacity, nor perfect bandwidth over the bus.
    #[test]
    fn des_makespan_lower_bound(
        num_groups in 1usize..200,
        cpu_cores in 1usize..5,
        cpu_cost in arb_cost(),
        bw in 5.0f64..40.0,
    ) {
        let input = DesInput {
            num_groups,
            cpu_cores,
            cpu_cost: Some(cpu_cost),
            gpu: None,
            schedule: Schedule::Dynamic { chunk_divisor: 10 },
            dram_bw_gbs: bw,
        };
        let r = run_des(&input, &FaultPlan::none(), None);
        let compute_bound =
            num_groups as f64 * cpu_cost.compute_s / cpu_cores as f64;
        let bytes_total = num_groups as f64 * cpu_cost.dram_bytes;
        let mem_bound = bytes_total / (bw * 1e9);
        prop_assert!(
            r.time_s + 1e-12 >= compute_bound.max(mem_bound) * 0.999,
            "time {} below bounds c={} m={}",
            r.time_s,
            compute_bound,
            mem_bound
        );
        // And an upper bound: never worse than fully serial on one core at
        // its achievable rate (its own cap or the bus, whichever binds).
        let rate = (cpu_cost.bw_cap_gbs * cpu_cost.dram_efficiency).min(bw) * 1e9;
        let serial =
            num_groups as f64 * cpu_cost.compute_s.max(cpu_cost.dram_bytes / rate);
        prop_assert!(r.time_s <= serial * 1.001 + 1e-12, "time {} > serial {}", r.time_s, serial);
    }

    /// Monotonicity: adding CPU cores never slows a *compute-bound*
    /// dynamic run down. (Memory-bound runs can legitimately regress by up
    /// to one group latency: with more cores each core's bandwidth share
    /// shrinks, so per-group latency grows, and the makespan is quantized
    /// in rounds of that latency — a real property of shared-bus systems,
    /// found by an earlier, stronger version of this test.)
    #[test]
    fn des_more_cores_never_hurt(
        num_groups in 1usize..200,
        cpu_cost in arb_cost(),
        bw in 5.0f64..40.0,
        cores in 1usize..4,
    ) {
        let time_with = |c: usize, bytes: f64| {
            let input = DesInput {
                num_groups,
                cpu_cores: c,
                cpu_cost: Some(GroupCost { dram_bytes: bytes, ..cpu_cost }),
                gpu: None,
                schedule: Schedule::Dynamic { chunk_divisor: 10 },
                dram_bw_gbs: bw,
            };
            run_des(&input, &FaultPlan::none(), None).time_s
        };
        // Compute-bound: strict monotonicity.
        prop_assert!(time_with(cores + 1, 0.0) <= time_with(cores, 0.0) * 1.001);
        // Memory-bound: bounded by one per-group latency at the reduced
        // share (bw split c+1 ways, floored by the per-core cap).
        let share = (bw / (cores + 1) as f64)
            .min(cpu_cost.bw_cap_gbs * cpu_cost.dram_efficiency);
        let group_latency =
            cpu_cost.compute_s.max(cpu_cost.dram_bytes / (share * 1e9));
        prop_assert!(
            time_with(cores + 1, cpu_cost.dram_bytes)
                <= time_with(cores, cpu_cost.dram_bytes) + group_latency * 1.001 + 1e-12
        );
    }

    /// Conservation under arbitrary fault plans and deadlines: every
    /// work-group lands in exactly one of the five buckets — done on the
    /// CPU, done on the GPU, watchdog-recovered, deadline-redispatched, or
    /// lost — whatever breaks and whenever the deadline fires. And the
    /// supervised DES stays deterministic.
    #[test]
    fn supervised_des_conserves_work_under_faults(
        num_groups in 0usize..300,
        cpu_cores in 0usize..6,
        cpu_cost in arb_cost(),
        gpu_cost in arb_cost(),
        with_gpu in any::<bool>(),
        schedule in arb_schedule(),
        plan in arb_fault_plan(),
        deadline in prop_oneof![Just(None), (1e-5f64..1e-2).prop_map(Some)],
        bw in 5.0f64..40.0,
    ) {
        prop_assume!(cpu_cores > 0 || with_gpu);
        let input = DesInput {
            num_groups,
            cpu_cores,
            cpu_cost: if cpu_cores > 0 { Some(cpu_cost) } else { None },
            gpu: if with_gpu {
                Some(GpuAgentParams { cost: gpu_cost, cus: 8, launch_latency_s: 1e-5 })
            } else {
                None
            },
            schedule,
            dram_bw_gbs: bw,
        };
        let r = run_des(&input, &plan, deadline);
        prop_assert_eq!(
            r.cpu_groups + r.gpu_groups + r.recovered_groups + r.redispatched_groups
                + r.lost_groups,
            num_groups,
            "buckets must partition the launch: {:?}",
            r
        );
        prop_assert!(r.time_s.is_finite() && r.time_s >= 0.0);
        prop_assert!(r.dram_bytes >= 0.0);
        let again = run_des(&input, &plan, deadline);
        prop_assert_eq!(r, again);
    }

    /// Determinism: identical inputs give bit-identical reports.
    #[test]
    fn des_is_deterministic(
        num_groups in 0usize..200,
        cpu_cores in 1usize..5,
        cpu_cost in arb_cost(),
        gpu_cost in arb_cost(),
        schedule in arb_schedule(),
    ) {
        let input = DesInput {
            num_groups,
            cpu_cores,
            cpu_cost: Some(cpu_cost),
            gpu: Some(GpuAgentParams { cost: gpu_cost, cus: 8, launch_latency_s: 1e-5 }),
            schedule,
            dram_bw_gbs: 15.0,
        };
        let none = FaultPlan::none();
        prop_assert_eq!(run_des(&input, &none, None), run_des(&input, &none, None));
    }
}

// ---------------------------------------------------------------------------
// Cost-model invariants
// ---------------------------------------------------------------------------

fn arb_site() -> impl Strategy<Value = SiteProfile> {
    (
        prop_oneof![
            Just(AccessClass::Constant),
            Just(AccessClass::Continuous),
            (2i64..10000).prop_map(AccessClass::Stride),
            Just(AccessClass::Random),
        ],
        any::<bool>(),
        prop_oneof![Just(4usize), Just(8)],
        1.0f64..20000.0,
        prop_oneof![
            Just(None),
            Just(Some(0i64)),
            Just(Some(1i64)),
            (2i64..20000).prop_map(Some)
        ],
        1usize..100_000_000,
    )
        .prop_map(|(class, is_store, elem_bytes, accesses, cross, buffer_elems)| SiteProfile {
            class,
            is_store,
            elem_bytes,
            accesses_per_item: accesses,
            cross_item_delta: cross,
            buffer_elems,
        })
}

fn arb_profile() -> impl Strategy<Value = KernelProfile> {
    (
        prop::collection::vec(arb_site(), 1..6),
        0.0f64..50000.0,
        0.0f64..50000.0,
        1.0f64..8.0,
    )
        .prop_map(|(sites, flops, iops, divergence)| KernelProfile {
            flops_per_item: flops,
            iops_per_item: iops,
            divergence,
            sites,
            items_sampled: 12,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// GPU costs are finite and sane for any profile, and DRAM traffic is
    /// monotone non-decreasing in active threads for profiles *without*
    /// broadcast sites. (Broadcast sites — every item streaming the same
    /// range — legitimately amortize with more lanes: one lockstep read
    /// serves more items, so fewer range passes per group can outweigh the
    /// falling cache-hit rate. Found by an earlier, stronger version of
    /// this test.)
    #[test]
    fn gpu_cost_sane_and_traffic_monotone(profile in arb_profile()) {
        let plat = PlatformConfig::kaveri();
        let consts = ModelConstants::default();
        let nd = NdRange::d1(16384, 256);
        let has_broadcast = profile
            .sites
            .iter()
            .any(|s| s.cross_item_delta == Some(0) && s.accesses_per_item > 1.5);
        let mut last_bytes = 0.0f64;
        for g in 1..=8 {
            let c = gpu_group_cost(&profile, &nd, &plat, &consts, g as f64 / 8.0, true);
            prop_assert!(c.compute_s.is_finite() && c.compute_s > 0.0);
            prop_assert!(c.dram_bytes.is_finite() && c.dram_bytes >= 0.0);
            prop_assert!(c.bw_cap_gbs > 0.0 && c.bw_cap_gbs <= plat.mem.dram_bw_gbs);
            prop_assert!((0.0..=1.0).contains(&c.dram_efficiency));
            if !has_broadcast {
                prop_assert!(
                    c.dram_bytes >= last_bytes * 0.999,
                    "traffic dipped at g={}: {} < {}",
                    g,
                    c.dram_bytes,
                    last_bytes
                );
            }
            last_bytes = c.dram_bytes;
        }
    }

    /// Throttling trades compute for cache headroom: compute time is
    /// monotone non-increasing in active lanes.
    #[test]
    fn gpu_compute_monotone_in_lanes(profile in arb_profile()) {
        let plat = PlatformConfig::kaveri();
        let consts = ModelConstants::default();
        let nd = NdRange::d1(16384, 256);
        let mut last = f64::INFINITY;
        for g in 1..=8 {
            let c = gpu_group_cost(&profile, &nd, &plat, &consts, g as f64 / 8.0, true);
            prop_assert!(c.compute_s <= last * 1.001);
            last = c.compute_s;
        }
    }

    /// CPU costs are finite and the divergence factor never affects them
    /// (CPUs pay mean work, not lockstep max).
    #[test]
    fn cpu_cost_ignores_divergence(mut profile in arb_profile()) {
        let plat = PlatformConfig::kaveri();
        let consts = ModelConstants::default();
        let nd = NdRange::d1(16384, 256);
        profile.divergence = 1.0;
        let a = cpu_group_cost(&profile, &nd, &plat, &consts);
        profile.divergence = 8.0;
        let b = cpu_group_cost(&profile, &nd, &plat, &consts);
        prop_assert_eq!(a, b);
        prop_assert!(a.compute_s.is_finite() && a.compute_s > 0.0);
        prop_assert!(a.dram_bytes.is_finite() && a.dram_bytes >= 0.0);
    }

    /// Divergence slows the GPU proportionally (lockstep pays the max).
    #[test]
    fn gpu_divergence_scales_compute(mut profile in arb_profile()) {
        prop_assume!(profile.flops_per_item + profile.iops_per_item > 1.0);
        let plat = PlatformConfig::kaveri();
        let consts = ModelConstants::default();
        let nd = NdRange::d1(16384, 256);
        profile.divergence = 1.0;
        let base = gpu_group_cost(&profile, &nd, &plat, &consts, 1.0, false).compute_s;
        profile.divergence = 4.0;
        let diverged = gpu_group_cost(&profile, &nd, &plat, &consts, 1.0, false).compute_s;
        prop_assert!(diverged > base * 1.5, "diverged {} vs base {}", diverged, base);
    }
}
