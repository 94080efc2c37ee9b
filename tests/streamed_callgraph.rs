//! The pipeline lifts each function, keeps only its `CfgDigest` and
//! drops the CFG, then builds the call graph from the digests. That
//! graph must equal `CallGraph::build` over the whole program's CFGs —
//! functions, call sites in order, edges, edge count and strata — on
//! random seeded generated programs and on the router profiles.

use dtaint_cfg::{build_all_cfgs, build_function_cfg, CallGraph, CfgDigest};
use dtaint_fwbin::{Binary, INS_SIZE};
use dtaint_fwgen::{build_firmware, table2_profiles};
use dtaint_ir::JumpKind;
use proptest::prelude::*;

fn assert_streamed_matches_full(bin: &Binary, label: &str) {
    let cfgs = build_all_cfgs(bin).expect("generated binary lifts");
    let full = CallGraph::build(bin, &cfgs);
    // One function alive at a time, as in the pipeline.
    let digests: Vec<CfgDigest> = bin
        .functions()
        .into_iter()
        .map(|s| build_function_cfg(bin, s).expect("lifts").digest())
        .collect();
    let streamed = CallGraph::from_digests(bin, &digests);

    assert_eq!(streamed.functions, full.functions, "{label}: functions");
    assert_eq!(streamed.callsites, full.callsites, "{label}: callsites");
    assert_eq!(streamed.edges, full.edges, "{label}: edges");
    assert_eq!(streamed.edge_count(), full.edge_count(), "{label}: edge_count");
    assert_eq!(streamed.strata(), full.strata(), "{label}: strata");

    // Independently of the digest: the call sites are exactly the CFGs'
    // call-terminated blocks, function by function in block order.
    let call_blocks: Vec<(u32, u32, u32, u32)> = cfgs
        .iter()
        .flat_map(|c| {
            c.blocks.iter().filter_map(move |(&a, b)| match b.jumpkind {
                JumpKind::Call { return_to } => Some((c.addr, a, b.end() - INS_SIZE, return_to)),
                _ => None,
            })
        })
        .collect();
    let sites: Vec<(u32, u32, u32, u32)> =
        streamed.callsites.iter().map(|c| (c.caller, c.block, c.ins_addr, c.return_to)).collect();
    assert_eq!(sites, call_blocks, "{label}: call sites are the call blocks");
    for (d, c) in digests.iter().zip(&cfgs) {
        assert_eq!((d.blocks, d.edges), (c.block_count(), c.edge_count()), "{label}: counts");
    }
}

#[test]
fn router_profiles_stream_the_same_call_graph() {
    for p in table2_profiles().into_iter().take(4) {
        let fw = build_firmware(&p);
        assert_streamed_matches_full(&fw.binary, p.binary_name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_programs_stream_the_same_call_graph(
        seed in 0u64..1_000_000,
        profile in 0usize..4,
        functions in 40usize..160,
    ) {
        let mut p = table2_profiles().remove(profile);
        p.seed = seed;
        p.total_functions = functions;
        let fw = build_firmware(&p);
        assert_streamed_matches_full(&fw.binary, &format!("seed {seed}"));
    }
}
