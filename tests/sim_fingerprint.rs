//! The simulator's output, pinned: a CRC-32 over every field of every
//! `Engine::simulate_supervised` report on a fixed set of profiled
//! launches, across the 44 DoP configurations, the three schedules, three
//! fault plans and three launch deadlines. Any change to the DES arithmetic
//! (fast path or exact event loop), the cost model or the dispatch between
//! them moves the fingerprint.

use dopia::prelude::*;
use sim::SimReport;

/// Appends every report field in a fixed order; floats by their bits.
fn push_report(bytes: &mut Vec<u8>, r: &SimReport) {
    for f in [
        r.time_s,
        r.dram_bytes,
        r.mem_requests(),
        r.cpu_busy_s,
        r.gpu_busy_s,
    ] {
        bytes.extend_from_slice(&f.to_bits().to_le_bytes());
    }
    for n in [
        r.cpu_groups,
        r.gpu_groups,
        r.recovered_groups,
        r.redispatched_groups,
        r.lost_groups,
    ] {
        bytes.extend_from_slice(&(n as u64).to_le_bytes());
    }
    bytes.extend_from_slice(&r.watchdog_fires.to_le_bytes());
    bytes.extend_from_slice(&[r.degraded as u8, r.cpu_faulted as u8, r.gpu_faulted as u8]);
}

/// The fingerprint was recorded before the DES entry points were merged
/// into one dispatcher; the merge had to leave every report bit-identical.
#[test]
fn simulate_supervised_reports_match_recorded_fingerprint() {
    let engine = Engine::kaveri();
    let space = config_space(&engine.platform);
    let mut mem = Memory::new();
    // At most 4,096 work-groups each, so the exact-loop cases stay cheap.
    let launches = [
        workloads::polybench::gesummv(&mut mem, 4096, 256),
        workloads::polybench::atax2(&mut mem, 4096, 64),
        workloads::spmv::spmv_csr(&mut mem, 4096, 256),
        workloads::polybench::conv2d(&mut mem, 512, [16, 16]),
        workloads::polybench::fdtd1(&mut mem, 512, [16, 16]),
    ];
    let schedules = [
        Schedule::Dynamic { chunk_divisor: 10 },
        Schedule::Static { cpu_fraction: 0.35 },
        Schedule::DynamicPull,
    ];
    let plans = [
        FaultPlan::none(),
        FaultPlan::preset("gpu-hang").unwrap(),
        FaultPlan::preset("cpu-stall").unwrap(),
    ];
    let deadlines = [None, Some(1e-4), Some(1e-2)];

    let mut bytes = Vec::new();
    let mut reports = 0usize;
    // Reports in which a deadline re-dispatched, the watchdog recovered,
    // or no survivor could finish work: the set must reach every bucket.
    let mut buckets = [0usize; 3];
    for built in &launches {
        assert!(built.nd.num_groups() <= 4096, "{}", built.name);
        let profile = engine.profile(built.spec(), &mut mem).unwrap();
        for point in &space {
            for &schedule in &schedules {
                for plan in &plans {
                    for &deadline in &deadlines {
                        let r = engine.simulate_supervised(
                            &profile,
                            &built.nd,
                            point.dop(),
                            schedule,
                            true,
                            plan,
                            deadline,
                        );
                        push_report(&mut bytes, &r);
                        reports += 1;
                        buckets[0] += (r.redispatched_groups > 0) as usize;
                        buckets[1] += (r.recovered_groups > 0) as usize;
                        buckets[2] += (r.lost_groups > 0) as usize;
                    }
                }
            }
        }
    }
    assert!(buckets.iter().all(|&n| n > 0), "fault buckets reached: {buckets:?}");
    assert_eq!(
        (ml::io::crc32(&bytes), reports),
        (0x10e9_2d75, 5 * 44 * 27),
        "simulator fingerprint (crc32, reports)"
    );
}
