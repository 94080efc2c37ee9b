//! Indirect-call resolution through data-structure layout similarity
//! (§III-D).
//!
//! The key insight of the paper: the object flowing into an indirect call
//! site and the object a function pointer was installed into usually
//! *share a data structure*. We therefore:
//!
//! 1. find **installers** — definition pairs storing a function's address
//!    into a structure field (`deref(root·path + off) = &func`),
//! 2. find **indirect call sites** — calls through `deref(base + off)`,
//! 3. match sites to installers with the same field position
//!    (access path and offset), ranking matches by the layout similarity
//!    σ of the two structures (Formula 2).

use crate::layout::{infer_layouts, root_and_path, AccessPath, Layout};
use dtaint_fwbin::Binary;
use dtaint_symex::pool::{ExprPool, SymNode};
use dtaint_symex::{CalleeRef, ExprId, FuncSummary};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A function pointer installed into a structure field.
#[derive(Debug, Clone)]
pub struct Installer {
    /// Entry address of the installed (target) function.
    pub func: u32,
    /// Function that performed the store.
    pub in_func: u32,
    /// Access path of the field's base from the structure root.
    pub path: AccessPath,
    /// Field offset of the stored pointer.
    pub offset: i64,
    /// Root pointer of the structure in the installer's summary; its
    /// layout is the one Formula 2 compares.
    pub root: ExprId,
}

/// A resolved indirect call.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedCall {
    /// Instruction address of the indirect call.
    pub ins_addr: u32,
    /// Function containing the call.
    pub caller: u32,
    /// Resolved callee entry address.
    pub callee: u32,
    /// Layout similarity of the match (Formula 2); 0 when the match fell
    /// back to unique field position without layout evidence.
    pub score: f64,
}

/// Finds installers and matches every indirect call site against them.
///
/// `summaries` must share `pool` and have distinct addresses. Sites with
/// several structurally plausible targets resolve to the
/// highest-similarity one ("the highest similarity σ", §III-D); ties and
/// zero-evidence sites resolve only when the field position identifies a
/// unique candidate.
pub fn resolve_indirect_calls<'a>(
    bin: &Binary,
    summaries: impl IntoIterator<Item = &'a FuncSummary>,
    pool: &ExprPool,
) -> Vec<ResolvedCall> {
    resolve(bin, summaries, pool).0
}

/// [`resolve_indirect_calls`], also returning the functions whose
/// layouts it inferred.
///
/// Layouts are inferred lazily, once per function: for installers, and
/// for callers with a site whose field position some installer shares.
fn resolve<'a>(
    bin: &Binary,
    summaries: impl IntoIterator<Item = &'a FuncSummary>,
    pool: &ExprPool,
) -> (Vec<ResolvedCall>, BTreeSet<u32>) {
    let summaries: Vec<&FuncSummary> = summaries.into_iter().collect();
    let mut layouts: HashMap<u32, BTreeMap<ExprId, Layout>> = HashMap::new();
    let installers = installers_by_position(bin, &summaries, pool, &mut layouts);

    // Pass 2: match indirect call sites.
    let no_fields = Layout::default();
    let mut resolved = Vec::new();
    for s in &summaries {
        for cs in &s.callsites {
            let CalleeRef::Indirect(e) = &cs.callee else { continue };
            let SymNode::Deref { addr, .. } = pool.node(*e) else { continue };
            let (base, offset) = pool.base_offset(addr);
            let Some((root, path)) = root_and_path(base, pool) else { continue };
            let Some(positional) = installers.get(&(path, offset)) else { continue };
            layouts.entry(s.addr).or_insert_with(|| infer_layouts(s, pool));
            let layout_of =
                |func: u32, root: ExprId| layouts[&func].get(&root).unwrap_or(&no_fields);
            let caller_layout = layout_of(s.addr, root);
            // Rank by layout similarity.
            let mut best: Option<(&Installer, f64)> = None;
            let mut best_count = 0usize;
            for inst in positional {
                let score = caller_layout.similarity(layout_of(inst.in_func, inst.root));
                match &best {
                    Some((_, s0)) if score < *s0 => {}
                    Some((_, s0)) if (score - s0).abs() < 1e-12 => best_count += 1,
                    _ => {
                        best = Some((inst, score));
                        best_count = 1;
                    }
                }
            }
            let (inst, score) = best.expect("positional nonempty");
            let unique = positional.iter().all(|i| i.func == inst.func);
            // Resolve on a strict similarity winner, or when the field
            // position identifies a single target anyway. Ambiguous ties
            // between different targets stay unresolved — precision over
            // recall.
            if (score > 0.0 && best_count == 1) || unique {
                resolved.push(ResolvedCall {
                    ins_addr: cs.ins_addr,
                    caller: s.addr,
                    callee: inst.func,
                    score,
                });
            }
        }
    }
    resolved.sort_by_key(|r| r.ins_addr);
    resolved.dedup_by_key(|r| (r.ins_addr, r.callee));
    (resolved, layouts.into_keys().collect())
}

/// Pass 1: installers grouped by field position, each group in
/// discovery order (the order breaks similarity ties). Infers each
/// installing function's layouts into `layouts`.
fn installers_by_position(
    bin: &Binary,
    summaries: &[&FuncSummary],
    pool: &ExprPool,
    layouts: &mut HashMap<u32, BTreeMap<ExprId, Layout>>,
) -> HashMap<(AccessPath, i64), Vec<Installer>> {
    let mut installers: HashMap<(AccessPath, i64), Vec<Installer>> = HashMap::new();
    for s in summaries {
        for dp in &s.def_pairs {
            let SymNode::Deref { addr, .. } = pool.node(dp.d) else { continue };
            let Some(c) = pool.as_const(dp.u) else { continue };
            let target = c as u32;
            let Some(func) = bin.function_at(target) else { continue };
            if func.addr != target {
                continue;
            }
            let (base, offset) = pool.base_offset(addr);
            let Some((root, path)) = root_and_path(base, pool) else { continue };
            layouts.entry(s.addr).or_insert_with(|| infer_layouts(s, pool));
            installers.entry((path.clone(), offset)).or_default().push(Installer {
                func: target,
                in_func: s.addr,
                path,
                offset,
                root,
            });
        }
    }
    installers
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtaint_fwbin::fbf::{Section, SectionKind, Symbol, SymbolKind};
    use dtaint_fwbin::Arch;
    use dtaint_symex::{CallsiteInfo, DefPair, ExprId};

    /// A binary with two functions at 0x1000 and 0x2000 (no code needed —
    /// resolution only consults the symbol table).
    fn fake_bin() -> Binary {
        Binary::new(
            Arch::Arm32e,
            0x1000,
            vec![Section {
                name: ".text".into(),
                kind: SectionKind::Text,
                addr: 0x1000,
                size: 0x2000,
                data: vec![0; 0x2000],
            }],
            vec![
                Symbol {
                    name: "handler_a".into(),
                    addr: 0x1000,
                    size: 16,
                    kind: SymbolKind::Function,
                },
                Symbol {
                    name: "handler_b".into(),
                    addr: 0x2000,
                    size: 16,
                    kind: SymbolKind::Function,
                },
            ],
            vec![],
        )
    }

    fn field(pool: &mut ExprPool, root: ExprId, off: i64) -> ExprId {
        let a = pool.add_const(root, off);
        pool.deref(a, 4)
    }

    /// Installer summary: stores &handler into arg0+8 and touches fields
    /// `offs` of the same struct.
    fn installer_summary(
        pool: &mut ExprPool,
        addr: u32,
        handler: u32,
        offs: &[i64],
    ) -> FuncSummary {
        let mut s = FuncSummary { addr, name: format!("install_{addr:x}"), ..Default::default() };
        let arg0 = pool.arg(0);
        let fp_field = field(pool, arg0, 8);
        let target = pool.constant(handler as i64);
        s.def_pairs.push(DefPair { d: fp_field, u: target, ins_addr: addr, path: 0 });
        let zero = pool.constant(0);
        for &o in offs {
            let d = field(pool, arg0, o);
            s.def_pairs.push(DefPair { d, u: zero, ins_addr: addr, path: 0 });
        }
        s
    }

    /// Caller summary: calls through arg0+8 and touches fields `offs`.
    fn caller_summary(pool: &mut ExprPool, addr: u32, offs: &[i64]) -> FuncSummary {
        let mut s = FuncSummary { addr, name: format!("call_{addr:x}"), ..Default::default() };
        let arg0 = pool.arg(0);
        let fp = field(pool, arg0, 8);
        let ret = pool.ret_sym(addr + 4);
        s.callsites.push(CallsiteInfo {
            ins_addr: addr + 4,
            callee: CalleeRef::Indirect(fp),
            args: vec![arg0],
            ret,
            path: 0,
        });
        let zero = pool.constant(0);
        for &o in offs {
            let d = field(pool, arg0, o);
            s.def_pairs.push(DefPair { d, u: zero, ins_addr: addr, path: 0 });
        }
        s
    }

    #[test]
    fn unique_candidate_resolves_even_without_layout_overlap() {
        let bin = fake_bin();
        let mut pool = ExprPool::new();
        let inst = installer_summary(&mut pool, 0x1100, 0x1000, &[]);
        let call = caller_summary(&mut pool, 0x1200, &[]);
        let r = resolve_indirect_calls(&bin, &[inst, call], &pool);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].callee, 0x1000);
    }

    #[test]
    fn similarity_picks_the_matching_structure() {
        let bin = fake_bin();
        let mut pool = ExprPool::new();
        // Two installers at the same field offset but different struct
        // shapes; the caller shares fields {0x10, 0x14} with installer A.
        let inst_a = installer_summary(&mut pool, 0x1100, 0x1000, &[0x10, 0x14]);
        let inst_b = installer_summary(&mut pool, 0x1300, 0x2000, &[0x40, 0x44, 0x48]);
        let call = caller_summary(&mut pool, 0x1200, &[0x10, 0x14]);
        let r = resolve_indirect_calls(&bin, &[inst_a, inst_b, call], &pool);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].callee, 0x1000, "layout similarity must pick handler_a");
        assert!(r[0].score > 0.5);
    }

    #[test]
    fn mismatched_field_offset_does_not_resolve() {
        let bin = fake_bin();
        let mut pool = ExprPool::new();
        let inst = installer_summary(&mut pool, 0x1100, 0x1000, &[0x10]);
        // Caller uses offset 12, installer stored at offset 8.
        let mut call = FuncSummary { addr: 0x1200, ..Default::default() };
        let arg0 = pool.arg(0);
        let fp = field(&mut pool, arg0, 12);
        let ret = pool.ret_sym(0x1204);
        call.callsites.push(CallsiteInfo {
            ins_addr: 0x1204,
            callee: CalleeRef::Indirect(fp),
            args: vec![],
            ret,
            path: 0,
        });
        let r = resolve_indirect_calls(&bin, &[inst, call], &pool);
        assert!(r.is_empty());
    }

    #[test]
    fn ambiguous_identical_candidates_stay_unresolved() {
        let bin = fake_bin();
        let mut pool = ExprPool::new();
        // Two installers, identical shapes, different targets: ambiguous.
        let inst_a = installer_summary(&mut pool, 0x1100, 0x1000, &[0x10]);
        let inst_b = installer_summary(&mut pool, 0x1300, 0x2000, &[0x10]);
        let call = caller_summary(&mut pool, 0x1200, &[0x10]);
        let r = resolve_indirect_calls(&bin, &[inst_a, inst_b, call], &pool);
        assert!(r.is_empty(), "tie between different targets must stay unresolved");
    }

    #[test]
    fn non_function_constants_are_not_installers() {
        let bin = fake_bin();
        let mut pool = ExprPool::new();
        let mut inst = FuncSummary { addr: 0x1100, ..Default::default() };
        let arg0 = pool.arg(0);
        let f = field(&mut pool, arg0, 8);
        // 0x1008 is *inside* handler_a but not its entry.
        let mid = pool.constant(0x1008);
        inst.def_pairs.push(DefPair { d: f, u: mid, ins_addr: 0, path: 0 });
        let call = caller_summary(&mut pool, 0x1200, &[]);
        let r = resolve_indirect_calls(&bin, &[inst, call], &pool);
        assert!(r.is_empty());
    }

    #[test]
    fn wrapping_constant_store_is_not_an_installer() {
        let mut bin = fake_bin();
        let mut symbols = bin.symbols().to_vec();
        symbols.push(Symbol {
            name: "wraps".into(),
            addr: 0xFFFF_FFF0,
            size: 0x20,
            kind: SymbolKind::Function,
        });
        bin = Binary::new(bin.arch, bin.entry, bin.sections, symbols, bin.imports);
        let mut pool = ExprPool::new();
        let mut inst = FuncSummary { addr: 0x1100, ..Default::default() };
        let arg0 = pool.arg(0);
        let f = field(&mut pool, arg0, 8);
        // `-1` lies above the wrapping symbol's start.
        let minus_one = pool.constant(-1);
        inst.def_pairs.push(DefPair { d: f, u: minus_one, ins_addr: 0, path: 0 });
        let call = caller_summary(&mut pool, 0x1200, &[]);
        assert!(resolve_indirect_calls(&bin, &[inst, call], &pool).is_empty());
    }

    #[test]
    fn same_position_installers_keep_insertion_order_on_ties() {
        let bin = fake_bin();
        let mut pool = ExprPool::new();
        // Two installers of the same target at the same field, both with
        // the caller's exact layout: the first one inserted wins the tie
        // and the unique target resolves.
        let inst_a = installer_summary(&mut pool, 0x1100, 0x2000, &[0x10]);
        let inst_b = installer_summary(&mut pool, 0x1300, 0x2000, &[0x10]);
        let call = caller_summary(&mut pool, 0x1200, &[0x10]);
        let r = resolve_indirect_calls(&bin, [&inst_a, &inst_b, &call], &pool);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].callee, 0x2000);
        assert!(r[0].score > 0.5);
        // The group for field +8 lists installers in summary order.
        for order in [[&inst_a, &inst_b], [&inst_b, &inst_a]] {
            let groups = installers_by_position(&bin, &order, &pool, &mut HashMap::new());
            let in_funcs: Vec<u32> = groups[&(vec![], 8)].iter().map(|i| i.in_func).collect();
            assert_eq!(in_funcs, vec![order[0].addr, order[1].addr]);
        }
    }

    #[test]
    fn caller_layout_is_inferred_only_for_matching_sites() {
        let bin = fake_bin();
        let mut pool = ExprPool::new();
        let inst = installer_summary(&mut pool, 0x1100, 0x1000, &[0x10]);
        let call = caller_summary(&mut pool, 0x1200, &[0x10]);
        // Calls through arg0+12, a field no installer writes.
        let mut stray = FuncSummary { addr: 0x1300, ..Default::default() };
        let arg0 = pool.arg(0);
        let fp = field(&mut pool, arg0, 12);
        let ret = pool.ret_sym(0x1304);
        stray.callsites.push(CallsiteInfo {
            ins_addr: 0x1304,
            callee: CalleeRef::Indirect(fp),
            args: vec![arg0],
            ret,
            path: 0,
        });
        let plain = FuncSummary { addr: 0x1400, ..Default::default() };
        let (r, inferred) = resolve(&bin, &[inst, call, stray, plain], &pool);
        assert_eq!(r.len(), 1);
        assert_eq!(inferred.into_iter().collect::<Vec<_>>(), vec![0x1100, 0x1200]);
    }

    #[test]
    fn borrowed_map_values_resolve_like_a_cloned_vec() {
        let bin = fake_bin();
        let mut pool = ExprPool::new();
        let by_addr: BTreeMap<u32, FuncSummary> = [
            installer_summary(&mut pool, 0x1100, 0x1000, &[0x10, 0x14]),
            installer_summary(&mut pool, 0x1300, 0x2000, &[0x40, 0x44]),
            caller_summary(&mut pool, 0x1200, &[0x10, 0x14]),
            caller_summary(&mut pool, 0x1400, &[0x40]),
        ]
        .into_iter()
        .map(|s| (s.addr, s))
        .collect();
        let owned: Vec<FuncSummary> = by_addr.values().cloned().collect();
        let borrowed = resolve_indirect_calls(&bin, by_addr.values(), &pool);
        assert_eq!(borrowed, resolve_indirect_calls(&bin, &owned, &pool));
        assert_eq!(borrowed.len(), 2);
    }
}
