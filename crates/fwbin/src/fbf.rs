//! FBF — the Firmware Binary Format.
//!
//! FBF plays the role ELF plays for real firmware: it carries loadable
//! sections, a function symbol table, and an import table mapping library
//! function names (`strcpy`, `recv`, `system`, …) to PLT-like stub
//! addresses. The DTaint pipeline consumes exactly this information:
//! function boundaries to build CFGs, and import stubs to recognise
//! sources and sinks at call sites.
//!
//! The on-disk encoding is little-endian with length-prefixed strings; see
//! [`Binary::to_bytes`] / [`Binary::from_bytes`] for the round trip.

use crate::{Arch, Error, Result};
use bytes::{Buf, BufMut};
use std::collections::BTreeSet;

/// Magic bytes opening every serialized FBF binary.
pub const FBF_MAGIC: [u8; 4] = *b"FBF1";

/// The role of a section within the binary image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SectionKind {
    /// Executable code.
    Text,
    /// Import stubs (procedure linkage table).
    Plt,
    /// Read-only data (string literals, jump tables).
    RoData,
    /// Initialised writable data.
    Data,
    /// Zero-initialised writable data (no bytes stored).
    Bss,
}

impl SectionKind {
    fn to_u8(self) -> u8 {
        match self {
            SectionKind::Text => 0,
            SectionKind::Plt => 1,
            SectionKind::RoData => 2,
            SectionKind::Data => 3,
            SectionKind::Bss => 4,
        }
    }

    fn from_u8(v: u8) -> Result<Self> {
        Ok(match v {
            0 => SectionKind::Text,
            1 => SectionKind::Plt,
            2 => SectionKind::RoData,
            3 => SectionKind::Data,
            4 => SectionKind::Bss,
            _ => return Err(Error::BadFormat(format!("unknown section kind {v}"))),
        })
    }
}

/// A loadable section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Section name (`.text`, `.plt`, `.rodata`, `.data`, `.bss`).
    pub name: String,
    /// The section's role.
    pub kind: SectionKind,
    /// Load address of the first byte.
    pub addr: u32,
    /// Size in bytes; for [`SectionKind::Bss`] this exceeds `data.len()`.
    pub size: u32,
    /// Raw bytes (empty for BSS).
    pub data: Vec<u8>,
}

impl Section {
    /// True when `addr` falls inside this section.
    pub fn contains(&self, addr: u32) -> bool {
        addr >= self.addr && addr < self.addr.wrapping_add(self.size)
    }
}

/// The kind of a defined symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SymbolKind {
    /// A function entry point in `.text`.
    Function,
    /// A data object (rodata/data/bss).
    Object,
}

/// A defined symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    /// Symbol name.
    pub name: String,
    /// Address of the first byte.
    pub addr: u32,
    /// Size in bytes.
    pub size: u32,
    /// Function or data object.
    pub kind: SymbolKind,
}

/// An imported library function, reachable through a PLT stub.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Import {
    /// Library function name (e.g. `strcpy`).
    pub name: String,
    /// Address of the stub that call instructions target.
    pub stub_addr: u32,
}

/// A loaded firmware binary.
///
/// # Examples
///
/// ```
/// use dtaint_fwbin::asm::Assembler;
/// use dtaint_fwbin::link::BinaryBuilder;
/// use dtaint_fwbin::{Arch, Binary};
///
/// let mut a = Assembler::new(Arch::Mips32e);
/// a.ret();
/// let mut b = BinaryBuilder::new(Arch::Mips32e);
/// b.add_function("main", a);
/// let bin = b.link()?;
/// let bytes = bin.to_bytes();
/// let reloaded = Binary::from_bytes(&bytes)?;
/// assert_eq!(bin, reloaded);
/// # Ok::<(), dtaint_fwbin::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Binary {
    /// Guest architecture of the code sections.
    pub arch: Arch,
    /// Entry-point address.
    pub entry: u32,
    /// Loadable sections, in address order.
    pub sections: Vec<Section>,
    /// Defined symbols; read-only after construction (see
    /// [`Binary::symbols`]) so that `functions_at` never goes stale.
    symbols: Vec<Symbol>,
    /// Imported library functions.
    pub imports: Vec<Import>,
    /// Exact [`Binary::function_at`] answers over `symbols`.
    functions_at: FunctionIndex,
}

/// The covering function symbol of every address, as sorted gaps.
///
/// Entry `(start, owner)` covers the addresses from `start` up to the
/// next entry's start: `owner` is the table position of the *first*
/// function symbol (in table order) whose range holds them, or `None`.
/// Zero-size ranges, and ranges whose end wraps past 2³², cover nothing.
/// Lookup is one binary search.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FunctionIndex {
    gaps: Vec<(u32, Option<u32>)>,
}

impl FunctionIndex {
    /// Sweeps the range endpoints in address order, keeping the table
    /// positions of the ranges open at each point.
    fn build(symbols: &[Symbol]) -> FunctionIndex {
        let mut events: Vec<(u32, u32, bool)> = Vec::new();
        for (pos, s) in symbols.iter().enumerate() {
            if s.kind != SymbolKind::Function || s.size == 0 {
                continue;
            }
            let Some(end) = s.addr.checked_add(s.size) else { continue };
            events.push((s.addr, pos as u32, true));
            events.push((end, pos as u32, false));
        }
        events.sort_unstable();
        let mut open = BTreeSet::new();
        let mut gaps: Vec<(u32, Option<u32>)> = Vec::new();
        for (k, &(at, pos, starts)) in events.iter().enumerate() {
            if starts {
                open.insert(pos);
            } else {
                open.remove(&pos);
            }
            if events.get(k + 1).is_some_and(|next| next.0 == at) {
                continue;
            }
            let owner = open.first().copied();
            if gaps.last().map(|g| g.1) != Some(owner) {
                gaps.push((at, owner));
            }
        }
        FunctionIndex { gaps }
    }

    fn lookup(&self, addr: u32) -> Option<usize> {
        let i = self.gaps.partition_point(|&(start, _)| start <= addr);
        self.gaps.get(i.checked_sub(1)?)?.1.map(|pos| pos as usize)
    }
}

/// Shape statistics of one [`Binary`] (see [`Binary::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BinStats {
    /// Loadable sections.
    pub sections: usize,
    /// Defined symbols of every kind.
    pub symbols: usize,
    /// Function symbols.
    pub functions: usize,
    /// Imported library functions.
    pub imports: usize,
    /// Bytes of executable code (text + PLT sections).
    pub code_bytes: u64,
}

impl Binary {
    /// Assembles a binary, indexing its function symbols.
    pub fn new(
        arch: Arch,
        entry: u32,
        sections: Vec<Section>,
        symbols: Vec<Symbol>,
        imports: Vec<Import>,
    ) -> Binary {
        let functions_at = FunctionIndex::build(&symbols);
        Binary { arch, entry, sections, symbols, imports, functions_at }
    }

    /// Defined symbols, in table order. The table is fixed at
    /// construction; build a new [`Binary`] to change it.
    pub fn symbols(&self) -> &[Symbol] {
        &self.symbols
    }

    /// The section of the given kind, if present.
    pub fn section(&self, kind: SectionKind) -> Option<&Section> {
        self.sections.iter().find(|s| s.kind == kind)
    }

    /// The section containing `addr`, if any.
    pub fn section_at(&self, addr: u32) -> Option<&Section> {
        self.sections.iter().find(|s| s.contains(addr))
    }

    /// True when `addr` lies in an immutable section (text, PLT,
    /// rodata) whose load-time bytes are the runtime bytes. Loads from
    /// writable sections must stay symbolic in static analysis.
    pub fn is_immutable_addr(&self, addr: u32) -> bool {
        matches!(
            self.section_at(addr).map(|s| s.kind),
            Some(SectionKind::Text | SectionKind::Plt | SectionKind::RoData)
        )
    }

    /// The function symbol with the given name.
    pub fn function(&self, name: &str) -> Option<&Symbol> {
        self.symbols.iter().find(|s| s.kind == SymbolKind::Function && s.name == name)
    }

    /// Whole-binary shape statistics — the telemetry layer publishes
    /// these as per-image gauges.
    pub fn stats(&self) -> BinStats {
        BinStats {
            sections: self.sections.len(),
            symbols: self.symbols.len(),
            functions: self.symbols.iter().filter(|s| s.kind == SymbolKind::Function).count(),
            imports: self.imports.len(),
            code_bytes: self
                .sections
                .iter()
                .filter(|s| matches!(s.kind, SectionKind::Text | SectionKind::Plt))
                .map(|s| u64::from(s.size))
                .sum(),
        }
    }

    /// All function symbols in address order.
    pub fn functions(&self) -> Vec<&Symbol> {
        let mut v: Vec<&Symbol> =
            self.symbols.iter().filter(|s| s.kind == SymbolKind::Function).collect();
        v.sort_by_key(|s| s.addr);
        v
    }

    /// The function symbol covering `addr`, if any: the first one in
    /// table order when symbols overlap.
    pub fn function_at(&self, addr: u32) -> Option<&Symbol> {
        self.functions_at.lookup(addr).map(|pos| &self.symbols[pos])
    }

    /// The import whose stub is at `addr`, if any.
    pub fn import_at(&self, addr: u32) -> Option<&Import> {
        self.imports.iter().find(|i| i.stub_addr == addr)
    }

    /// Reads `len` bytes at `addr` from whichever section contains them.
    ///
    /// BSS reads return zeroes. Returns `None` when the range is unmapped
    /// or straddles a section boundary.
    pub fn bytes_at(&self, addr: u32, len: u32) -> Option<Vec<u8>> {
        let stored = self.stored_from(addr, len)?;
        let mut out = stored[..stored.len().min(len as usize)].to_vec();
        out.resize(len as usize, 0);
        Some(out)
    }

    /// Reads a little-endian 32-bit word at `addr`, with the
    /// [`Binary::bytes_at`] rules but without allocating.
    pub fn read_u32(&self, addr: u32) -> Option<u32> {
        let stored = self.stored_from(addr, 4)?;
        let mut b = [0u8; 4];
        let n = stored.len().min(4);
        b[..n].copy_from_slice(&stored[..n]);
        Some(u32::from_le_bytes(b))
    }

    /// The stored bytes from `addr` to the end of its section's data,
    /// when `addr..addr + len` lies inside that one section. BSS and
    /// other unstored tails read as zero, so the slice may be shorter
    /// than `len`.
    fn stored_from(&self, addr: u32, len: u32) -> Option<&[u8]> {
        let s = self.section_at(addr)?;
        if addr.checked_add(len)? > s.addr + s.size {
            return None;
        }
        Some(s.data.get((addr - s.addr) as usize..).unwrap_or_default())
    }

    /// Reads a NUL-terminated string at `addr` (for rodata literals).
    pub fn cstr_at(&self, addr: u32) -> Option<String> {
        let s = self.sections.iter().find(|s| s.contains(addr))?;
        let off = (addr - s.addr) as usize;
        let rest = s.data.get(off..)?;
        let end = rest.iter().position(|&b| b == 0)?;
        String::from_utf8(rest[..end].to_vec()).ok()
    }

    /// Total size in bytes across all sections (the paper's "Size (KB)").
    pub fn total_size(&self) -> u32 {
        self.sections.iter().map(|s| s.size).sum()
    }

    /// Serialises the binary to its on-disk FBF encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(64 + self.sections.iter().map(|s| s.data.len()).sum::<usize>());
        out.put_slice(&FBF_MAGIC);
        out.put_u8(match self.arch {
            Arch::Arm32e => 0,
            Arch::Mips32e => 1,
        });
        out.put_u32_le(self.entry);
        out.put_u16_le(self.sections.len() as u16);
        for s in &self.sections {
            put_str(&mut out, &s.name);
            out.put_u8(s.kind.to_u8());
            out.put_u32_le(s.addr);
            out.put_u32_le(s.size);
            out.put_u32_le(s.data.len() as u32);
            out.put_slice(&s.data);
        }
        out.put_u32_le(self.symbols.len() as u32);
        for s in &self.symbols {
            put_str(&mut out, &s.name);
            out.put_u32_le(s.addr);
            out.put_u32_le(s.size);
            out.put_u8(match s.kind {
                SymbolKind::Function => 0,
                SymbolKind::Object => 1,
            });
        }
        out.put_u16_le(self.imports.len() as u16);
        for i in &self.imports {
            put_str(&mut out, &i.name);
            out.put_u32_le(i.stub_addr);
        }
        out
    }

    /// Parses a binary from its on-disk FBF encoding.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadFormat`] on a bad magic, unknown enum value or
    /// malformed string, [`Error::Truncated`] when the input ends early
    /// (including a symbol count larger than the remaining input),
    /// [`Error::SectionOutOfRange`] when a section lies about its
    /// extent, and [`Error::BadSymbol`] when a symbol's address range
    /// wraps the address space.
    pub fn from_bytes(mut buf: &[u8]) -> Result<Binary> {
        let magic = take(&mut buf, 4)?;
        if magic != FBF_MAGIC {
            return Err(Error::BadFormat("bad magic".into()));
        }
        let arch = match get_u8(&mut buf)? {
            0 => Arch::Arm32e,
            1 => Arch::Mips32e,
            v => return Err(Error::BadFormat(format!("unknown arch {v}"))),
        };
        let entry = get_u32(&mut buf)?;
        let n_sections = get_u16(&mut buf)? as usize;
        let mut sections = Vec::with_capacity(n_sections);
        for _ in 0..n_sections {
            let name = get_str(&mut buf)?;
            let kind = SectionKind::from_u8(get_u8(&mut buf)?)?;
            let addr = get_u32(&mut buf)?;
            let size = get_u32(&mut buf)?;
            let data_len = get_u32(&mut buf)? as usize;
            // A section whose claimed range wraps the 32-bit address
            // space, or that stores more bytes than it spans, is lying
            // about its extent.
            if addr.checked_add(size).is_none() || data_len as u64 > size as u64 {
                return Err(Error::SectionOutOfRange { name, addr, size });
            }
            let data = take(&mut buf, data_len)?.to_vec();
            sections.push(Section { name, kind, addr, size, data });
        }
        let n_symbols = get_u32(&mut buf)? as usize;
        // Each symbol occupies at least 11 encoded bytes; a count that
        // cannot fit in the remaining input is corrupt, and reserving
        // for it up front would abort on allocation before the loop
        // ever hit `Truncated`.
        if n_symbols > buf.remaining() / 11 {
            return Err(Error::Truncated);
        }
        let mut symbols = Vec::with_capacity(n_symbols);
        for _ in 0..n_symbols {
            let name = get_str(&mut buf)?;
            let addr = get_u32(&mut buf)?;
            let size = get_u32(&mut buf)?;
            let kind = match get_u8(&mut buf)? {
                0 => SymbolKind::Function,
                1 => SymbolKind::Object,
                v => return Err(Error::BadFormat(format!("unknown symbol kind {v}"))),
            };
            if addr.checked_add(size).is_none() {
                return Err(Error::BadSymbol { name, addr });
            }
            symbols.push(Symbol { name, addr, size, kind });
        }
        let n_imports = get_u16(&mut buf)? as usize;
        let mut imports = Vec::with_capacity(n_imports);
        for _ in 0..n_imports {
            let name = get_str(&mut buf)?;
            let stub_addr = get_u32(&mut buf)?;
            imports.push(Import { name, stub_addr });
        }
        Ok(Binary::new(arch, entry, sections, symbols, imports))
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.put_u16_le(s.len() as u16);
    out.put_slice(s.as_bytes());
}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if buf.remaining() < n {
        return Err(Error::Truncated);
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

fn get_u8(buf: &mut &[u8]) -> Result<u8> {
    if buf.remaining() < 1 {
        return Err(Error::Truncated);
    }
    Ok(buf.get_u8())
}

fn get_u16(buf: &mut &[u8]) -> Result<u16> {
    if buf.remaining() < 2 {
        return Err(Error::Truncated);
    }
    Ok(buf.get_u16_le())
}

fn get_u32(buf: &mut &[u8]) -> Result<u32> {
    if buf.remaining() < 4 {
        return Err(Error::Truncated);
    }
    Ok(buf.get_u32_le())
}

fn get_str(buf: &mut &[u8]) -> Result<String> {
    let len = get_u16(buf)? as usize;
    let bytes = take(buf, len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| Error::BadFormat("non-utf8 string".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_binary() -> Binary {
        Binary::new(
            Arch::Arm32e,
            0x10000,
            vec![
                Section {
                    name: ".text".into(),
                    kind: SectionKind::Text,
                    addr: 0x10000,
                    size: 8,
                    data: vec![1, 2, 3, 4, 5, 6, 7, 8],
                },
                Section {
                    name: ".rodata".into(),
                    kind: SectionKind::RoData,
                    addr: 0x20000,
                    size: 6,
                    data: b"hi\0yo\0".to_vec(),
                },
                Section {
                    name: ".bss".into(),
                    kind: SectionKind::Bss,
                    addr: 0x30000,
                    size: 64,
                    data: vec![],
                },
            ],
            vec![
                Symbol { name: "main".into(), addr: 0x10000, size: 8, kind: SymbolKind::Function },
                Symbol { name: "greet".into(), addr: 0x20000, size: 3, kind: SymbolKind::Object },
            ],
            vec![Import { name: "strcpy".into(), stub_addr: 0x18000 }],
        )
    }

    #[test]
    fn roundtrip_serialisation() {
        let b = sample_binary();
        let reloaded = Binary::from_bytes(&b.to_bytes()).unwrap();
        assert_eq!(b, reloaded);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample_binary().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(Binary::from_bytes(&bytes), Err(Error::BadFormat(_))));
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        let bytes = sample_binary().to_bytes();
        for len in 0..bytes.len() {
            let r = Binary::from_bytes(&bytes[..len]);
            assert!(r.is_err(), "prefix of {len} bytes should not parse");
        }
    }

    #[test]
    fn section_lookup_and_reads() {
        let b = sample_binary();
        assert_eq!(b.section(SectionKind::Text).unwrap().addr, 0x10000);
        assert_eq!(b.read_u32(0x10000), Some(u32::from_le_bytes([1, 2, 3, 4])));
        assert_eq!(b.read_u32(0x10004), Some(u32::from_le_bytes([5, 6, 7, 8])));
        // Straddling the end of a section fails.
        assert_eq!(b.read_u32(0x10006), None);
        // Unmapped address fails.
        assert_eq!(b.read_u32(0x50000), None);
        // BSS reads back as zeroes.
        assert_eq!(b.read_u32(0x30010), Some(0));
    }

    #[test]
    fn cstr_reads_nul_terminated() {
        let b = sample_binary();
        assert_eq!(b.cstr_at(0x20000).as_deref(), Some("hi"));
        assert_eq!(b.cstr_at(0x20003).as_deref(), Some("yo"));
        assert_eq!(b.cstr_at(0x10000 - 1), None);
    }

    #[test]
    fn symbol_lookups() {
        let b = sample_binary();
        assert_eq!(b.function("main").unwrap().addr, 0x10000);
        assert!(b.function("greet").is_none(), "objects are not functions");
        assert_eq!(b.function_at(0x10004).unwrap().name, "main");
        assert_eq!(b.function_at(0x10008), None, "end is exclusive");
        assert_eq!(b.import_at(0x18000).unwrap().name, "strcpy");
        assert_eq!(b.functions().len(), 1);
    }

    #[test]
    fn read_u32_zero_fills_bss_and_rejects_straddles_and_holes() {
        let mut b = sample_binary();
        // A data section storing 6 of its 12 bytes: the tail reads zero.
        b.sections.push(Section {
            name: ".data".into(),
            kind: SectionKind::Data,
            addr: 0x40000,
            size: 12,
            data: vec![0xAA; 6],
        });
        assert_eq!(b.read_u32(0x40004), Some(0x0000_AAAA), "stored bytes, then zeroes");
        assert_eq!(b.read_u32(0x40008), Some(0));
        assert_eq!(b.read_u32(0x3003E), None, "straddles the end of .bss");
        assert_eq!(b.read_u32(0x4000A), None, "straddles the end of .data");
        assert_eq!(b.read_u32(0x3FFFE), None, "unmapped start");
        assert_eq!(b.read_u32(u32::MAX - 1), None, "end wraps the address space");
        for addr in [0x10000, 0x10004, 0x30000, 0x40004, 0x40008, 0x10006] {
            let via_bytes =
                b.bytes_at(addr, 4).map(|v| u32::from_le_bytes([v[0], v[1], v[2], v[3]]));
            assert_eq!(b.read_u32(addr), via_bytes, "{addr:#x}");
        }
    }

    fn func(name: &str, addr: u32, size: u32) -> Symbol {
        Symbol { name: name.into(), addr, size, kind: SymbolKind::Function }
    }

    fn with_symbols(symbols: Vec<Symbol>) -> Binary {
        Binary::new(Arch::Arm32e, 0, vec![], symbols, vec![])
    }

    /// The linear scan the index replaced, kept as the reference: the
    /// first function symbol in table order whose range holds `addr`,
    /// where a range whose end wraps past 2³² covers nothing.
    fn function_at_reference(bin: &Binary, addr: u32) -> Option<usize> {
        bin.symbols().iter().position(|s| {
            s.kind == SymbolKind::Function
                && addr >= s.addr
                && s.addr.checked_add(s.size).is_some_and(|end| addr < end)
        })
    }

    #[test]
    fn wrapping_function_range_covers_nothing() {
        let b =
            with_symbols(vec![func("wraps", 0xFFFF_FFF0, 0x20), func("top", 0xFFFF_FF00, 0x10)]);
        assert_eq!(b.function_at(0xFFFF_FFFF), None);
        assert_eq!(b.function_at(0xFFFF_FFF0), None);
        assert_eq!(b.function_at(0x8), None);
        assert_eq!(b.function_at(0xFFFF_FF0F).unwrap().name, "top");
    }

    #[test]
    fn overlapping_functions_resolve_to_the_first_in_table_order() {
        let b = with_symbols(vec![
            func("inner", 0x1010, 0x10),
            func("outer", 0x1000, 0x40),
            func("empty", 0x1020, 0),
        ]);
        assert_eq!(b.function_at(0x1000).unwrap().name, "outer");
        assert_eq!(b.function_at(0x1010).unwrap().name, "inner");
        assert_eq!(b.function_at(0x101F).unwrap().name, "inner");
        assert_eq!(b.function_at(0x1020).unwrap().name, "outer");
        assert_eq!(b.function_at(0x1040), None);
        assert_eq!(b.function_at(0xFFF), None);
    }

    #[test]
    fn total_size_sums_sections() {
        assert_eq!(sample_binary().total_size(), 8 + 6 + 64);
    }

    proptest! {
        #[test]
        fn from_bytes_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = Binary::from_bytes(&data);
        }

        #[test]
        fn roundtrip_arbitrary_section_bytes(data in proptest::collection::vec(any::<u8>(), 0..128)) {
            let b = Binary::new(
                Arch::Mips32e,
                0,
                vec![Section {
                    name: ".text".into(),
                    kind: SectionKind::Text,
                    addr: 0x1000,
                    size: data.len() as u32,
                    data: data.clone(),
                }],
                vec![],
                vec![],
            );
            prop_assert_eq!(Binary::from_bytes(&b.to_bytes()).unwrap(), b);
        }

        /// The index answers exactly as the linear reference scan over
        /// overlapping, nested, zero-size, wrapping and non-function
        /// symbols, probed at random addresses and at every range edge.
        #[test]
        fn indexed_function_at_matches_linear_scan(
            table in proptest::collection::vec(
                (
                    prop_oneof![0u32..0x400, (u32::MAX - 0x100)..=u32::MAX],
                    prop_oneof![Just(0u32), 1u32..0x80, Just(u32::MAX)],
                    any::<bool>(),
                ),
                0..24,
            ),
            probes in proptest::collection::vec(any::<u32>(), 0..16),
        ) {
            let symbols: Vec<Symbol> = table
                .iter()
                .enumerate()
                .map(|(i, &(addr, size, is_func))| Symbol {
                    name: format!("s{i}"),
                    addr,
                    size,
                    kind: if is_func { SymbolKind::Function } else { SymbolKind::Object },
                })
                .collect();
            let edges = symbols.iter().flat_map(|s| {
                let end = s.addr.wrapping_add(s.size);
                [s.addr, s.addr.wrapping_sub(1), end, end.wrapping_sub(1)]
            });
            let b = with_symbols(symbols.clone());
            for addr in probes.into_iter().chain(edges).chain([0, u32::MAX]) {
                // Names are unique, so equal names mean equal table positions.
                let indexed = b.function_at(addr).map(|s| s.name.as_str());
                let expected = function_at_reference(&b, addr).map(|i| b.symbols()[i].name.as_str());
                prop_assert_eq!(indexed, expected, "probe {:#x}", addr);
            }
        }
    }
}
