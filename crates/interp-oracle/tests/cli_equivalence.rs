//! The runtime's cold launch of the CLI's example kernel agrees with the
//! reference oracle.
//!
//! `dopia run examples/kernels/gesummv.cl --n 512 --arg A=262144 --arg
//! B=262144` builds the program, profiles the launch on the bytecode VM
//! (precompiled at build time) and picks a configuration. Replaying that
//! launch here, the profile `Dopia::profile` returns must equal the
//! tree-walker's bit for bit, and a launch driven by the tree-walker's
//! profile must pick the same configuration and simulate the same time as
//! the real enqueue.

use dopia_core::training::tiny_training_set;
use dopia_core::{Dopia, PerfModel};
use interp_oracle::{assert_profiles_equal, profile_kernel};
use ml::ModelKind;
use sim::{ArgValue, Engine, Memory, NdRange};

/// `--n`, and the `--arg` overrides of the CLI command line above.
const N: usize = 512;
const OVERRIDES: &[(&str, usize)] = &[("A", 262144), ("B", 262144)];

/// Bind arguments the way `dopia run` does: pointer parameters get `N`
/// elements unless overridden (float buffers virtual, seeded by parameter
/// position), float scalars 1.0, int scalars `N`.
fn bind_like_cli(kernel: &clc::Kernel, mem: &mut Memory) -> Vec<ArgValue> {
    kernel
        .params
        .iter()
        .enumerate()
        .map(|(idx, param)| match &param.ty {
            clc::Type::Ptr { elem, .. } if elem.is_float() => {
                let elems = OVERRIDES
                    .iter()
                    .find(|(name, _)| *name == param.name)
                    .map_or(N, |&(_, len)| len);
                ArgValue::Buffer(mem.alloc_virtual_f32(elems, 0xC11 + idx as u64))
            }
            clc::Type::Scalar(s) if s.is_float() => ArgValue::Float(1.0),
            clc::Type::Scalar(_) => ArgValue::Int(N as i64),
            other => panic!("gesummv has no parameter of type {}", other),
        })
        .collect()
}

#[test]
fn cli_gesummv_launch_matches_the_oracle() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/kernels/gesummv.cl");
    let source = std::fs::read_to_string(path).expect("examples/kernels/gesummv.cl");
    // The CLI's default engine and start-up model.
    let engine = Engine::kaveri();
    let (data, _) = tiny_training_set(&engine);
    let dopia = Dopia::new(engine, PerfModel::train(ModelKind::Dt, &data, 42));
    let program = dopia.create_program_with_source(&source).unwrap();
    let prepared = &program.kernels[0];
    let nd = NdRange::d1(N, 256);
    let mut mem = Memory::new();
    let args = bind_like_cli(&prepared.original, &mut mem);

    let reference = profile_kernel(&prepared.original, &args, &nd, &mut mem).unwrap();
    let profiled = dopia.profile(prepared, &args, nd, &mut mem).unwrap();
    assert_profiles_equal(&reference, &profiled, "gesummv");

    let from_oracle = dopia.launch_with_profile(prepared, &reference, nd);
    let launched = dopia
        .enqueue_nd_range_kernel(&program, &prepared.original.name, &args, nd, &mut mem)
        .unwrap();
    assert_eq!(from_oracle.selection.index, launched.selection.index);
    assert_eq!(from_oracle.kernel_time_s.to_bits(), launched.kernel_time_s.to_bits());
}
