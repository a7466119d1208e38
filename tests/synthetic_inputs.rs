//! The synthetic grid's integer matrices are virtual: their values are only
//! summed into OUT, never used as an address or a branch condition. This
//! checks that claim end to end. Every I32 source of the grid, built with
//! virtual matrices, must profile and simulate bit-identically to the same
//! launch over real matrices filled the way they used to be generated.

use dopia::prelude::*;
use dopia_core::configs;
use dopia_core::training::{self, TrainingOptions};
use sim::Buffer;
use std::collections::HashMap;
use workloads::data;
use workloads::synthetic::{DType, SyntheticParams};

/// The salt each data-matrix argument was generated with: OUT used `0xC0`,
/// term `t` (argument `t + 1`) used `t + 1`.
fn matrix_salt(arg: usize) -> u64 {
    if arg == 0 {
        0xC0
    } else {
        arg as u64
    }
}

#[test]
fn virtual_int_matrices_profile_and_time_like_real_ones() {
    let engine = Engine::kaveri();
    let space = configs::config_space(&engine.platform);
    let opts = TrainingOptions::default();
    let sources: Vec<SyntheticParams> = workloads::synthetic::training_grid()
        .into_iter()
        .filter(|p| p.dtype == DType::I32 && p.size == 16384)
        .collect();
    assert_eq!(sources.len(), 204, "17 patterns x 2 dim x 3 gamma x 2 wg");

    // One seed for all sources, so each (salt, length) pair's real data is
    // generated once and reused.
    let seed = 0xD0F1A;
    let mut generated: HashMap<(u64, usize), Vec<i32>> = HashMap::new();
    for params in &sources {
        let total = params.total_elems();

        let mut virt_mem = Memory::new();
        let virt = params.build(&mut virt_mem, seed);

        // The same launch with every virtual matrix replaced by real data.
        let mut real_mem = Memory::new();
        let real = params.build(&mut real_mem, seed);
        let mut matrices = 0;
        for (arg, value) in real.args.iter().enumerate() {
            let Some(id) = value.as_buffer() else { continue };
            if real_mem.get(id).is_virtual() {
                let salt = matrix_salt(arg);
                let values = generated
                    .entry((salt, total))
                    .or_insert_with(|| data::random_i32(total, 1000, seed ^ salt));
                real_mem.rebind(id, Buffer::I32(values.clone()));
                matrices += 1;
            }
        }
        assert_eq!(matrices, 1 + params.pattern.term_kinds().len(), "{}", params.name());

        let name = params.name();
        let p_virt = engine.profile(virt.spec(), &mut virt_mem).unwrap();
        let p_real = engine.profile(real.spec(), &mut real_mem).unwrap();
        assert_eq!(p_virt, p_real, "{}: profile", name);

        let r_virt =
            training::measure_workload(&engine, &virt, &mut virt_mem, &space, &opts).unwrap();
        let r_real =
            training::measure_workload(&engine, &real, &mut real_mem, &space, &opts).unwrap();
        let bits = |t: &[f64]| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&r_virt.times), bits(&r_real.times), "{}: times", name);
        assert_eq!(r_virt.best_index, r_real.best_index, "{}: best", name);
    }
}
