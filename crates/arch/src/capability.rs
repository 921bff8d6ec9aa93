//! Per-PE functional-unit capabilities for heterogeneous CGRAs.
//!
//! Real CGRAs are rarely uniform: memory ports sit on the array edge
//! near the scratchpad, multipliers are too large to replicate in every
//! tile, and the remaining PEs carry only a plain ALU. This module
//! models that as a small set of operation classes ([`OpClass`]) and a
//! per-PE bitmask of the classes the PE can execute ([`OpClassSet`]).
//!
//! A homogeneous grid is simply one where every PE has
//! [`OpClassSet::all`] — the default, so existing code and serialized
//! architectures are unaffected.
//!
//! ```
//! use cgra_arch::{CapabilityProfile, Cgra, OpClass};
//!
//! let cgra = Cgra::new(4, 4)?.with_capability_profile(CapabilityProfile::MemLeftColumn);
//! // Only the left column can touch memory; everyone keeps the ALU.
//! assert_eq!(cgra.providers(OpClass::Mem), 4);
//! assert_eq!(cgra.providers(OpClass::Alu), 16);
//! # Ok::<(), cgra_arch::ArchError>(())
//! ```

use std::fmt;

use serde::{Deserialize, Serialize};

/// The functional-unit class an operation needs (and a PE may provide).
///
/// The partition is deliberately coarse — it mirrors the three tile
/// flavours heterogeneous CGRA papers use (plain ALU tiles, multiplier
/// tiles, memory-port tiles) while keeping the per-PE mask one byte.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum OpClass {
    /// Plain integer ALU work: add/sub, logic, shifts, compares,
    /// selects, moves, constants, live-ins/outs and φ.
    Alu,
    /// Multiplier/divider block (`mul`, `div`).
    Mul,
    /// Memory port (`load`, `store`).
    Mem,
}

impl OpClass {
    /// Every operation class, in bit order.
    pub const ALL: [OpClass; 3] = [OpClass::Alu, OpClass::Mul, OpClass::Mem];

    /// The number of distinct classes.
    pub const COUNT: usize = 3;

    /// The bit this class occupies in an [`OpClassSet`].
    pub fn bit(self) -> u8 {
        match self {
            OpClass::Alu => 1 << 0,
            OpClass::Mul => 1 << 1,
            OpClass::Mem => 1 << 2,
        }
    }

    /// A short lowercase name (`alu`, `mul`, `mem`).
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Alu => "alu",
            OpClass::Mul => "mul",
            OpClass::Mem => "mem",
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A set of [`OpClass`]es: the capabilities of one PE, stored as a
/// one-byte bitmask.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct OpClassSet(u8);

/// Hand-written so bits outside the defined classes are masked away on
/// load: a serialized mask like `8` would otherwise pass the
/// empty-capability guard (`0 != 8`) while containing no class at all.
impl Deserialize for OpClassSet {
    fn from_json(r: &mut serde::de::Reader<'_>) -> Result<Self, serde::de::Error> {
        let raw = u8::from_json(r)?;
        Ok(OpClassSet(raw & Self::ALL_BITS))
    }
}

impl OpClassSet {
    /// The mask of all defined classes.
    const ALL_BITS: u8 = 0b111;

    /// The empty set (no capability at all — rejected by
    /// [`crate::Cgra::with_pe_capabilities`], but representable so
    /// builders can start from nothing).
    pub const fn empty() -> Self {
        OpClassSet(0)
    }

    /// The full set: a PE that can execute everything (the homogeneous
    /// default).
    pub const fn all() -> Self {
        OpClassSet(Self::ALL_BITS)
    }

    /// The singleton set of one class.
    pub fn only(class: OpClass) -> Self {
        OpClassSet(class.bit())
    }

    /// Returns the set with `class` added.
    #[must_use]
    pub fn with(self, class: OpClass) -> Self {
        OpClassSet(self.0 | class.bit())
    }

    /// Returns the set with `class` removed.
    #[must_use]
    pub fn without(self, class: OpClass) -> Self {
        OpClassSet(self.0 & !class.bit())
    }

    /// Membership test.
    pub fn contains(self, class: OpClass) -> bool {
        self.0 & class.bit() != 0
    }

    /// True when no defined class is present (bits outside the defined
    /// classes never count as a capability).
    pub fn is_empty(self) -> bool {
        self.0 & Self::ALL_BITS == 0
    }

    /// True when every defined class is present.
    pub fn is_all(self) -> bool {
        self.0 & Self::ALL_BITS == Self::ALL_BITS
    }

    /// Set union.
    #[must_use]
    pub fn union(self, other: OpClassSet) -> Self {
        OpClassSet(self.0 | other.0)
    }

    /// True when every class of `other` is also in `self`.
    pub fn is_superset_of(self, other: OpClassSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// The raw bitmask (bit `i` is `OpClass::ALL[i]`), for callers that
    /// store capabilities in wider generic masks (e.g. the monomorphism
    /// target's per-vertex capability words).
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Iterates over the member classes in bit order.
    pub fn iter(self) -> impl Iterator<Item = OpClass> {
        OpClass::ALL.into_iter().filter(move |c| self.contains(*c))
    }
}

impl Default for OpClassSet {
    /// The homogeneous default: every capability.
    fn default() -> Self {
        OpClassSet::all()
    }
}

impl fmt::Debug for OpClassSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, c) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<OpClass> for OpClassSet {
    fn from_iter<T: IntoIterator<Item = OpClass>>(iter: T) -> Self {
        iter.into_iter().fold(OpClassSet::empty(), OpClassSet::with)
    }
}

/// Preset heterogeneous capability layouts, parameterised only by the
/// grid shape. Used by [`crate::Cgra::with_capability_profile`] and the
/// bench drivers; arbitrary layouts go through
/// [`crate::Cgra::with_pe_capabilities`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum CapabilityProfile {
    /// Every PE provides every class (the default grid).
    Homogeneous,
    /// Memory ports only in column 0 (nearest the scratchpad);
    /// multipliers everywhere.
    MemLeftColumn,
    /// Multipliers on the `(row + col) % 2 == 0` checkerboard; memory
    /// ports everywhere.
    MulCheckerboard,
    /// The combined stress layout: memory confined to column 0 *and*
    /// multipliers to the checkerboard (the repo's standard
    /// heterogeneous test grid).
    MemLeftMulCheckerboard,
}

impl CapabilityProfile {
    /// Every preset, in declaration order (used by bench sweeps).
    pub const ALL: [CapabilityProfile; 4] = [
        CapabilityProfile::Homogeneous,
        CapabilityProfile::MemLeftColumn,
        CapabilityProfile::MulCheckerboard,
        CapabilityProfile::MemLeftMulCheckerboard,
    ];

    /// A short name for reports and bench IDs.
    pub fn name(self) -> &'static str {
        match self {
            CapabilityProfile::Homogeneous => "homogeneous",
            CapabilityProfile::MemLeftColumn => "mem-left-column",
            CapabilityProfile::MulCheckerboard => "mul-checkerboard",
            CapabilityProfile::MemLeftMulCheckerboard => "mem-left-mul-checker",
        }
    }

    /// Materialises the per-PE capability map for a `rows × cols` grid
    /// (row-major, like `PeId` indices). Every produced set is
    /// non-empty: all PEs always keep [`OpClass::Alu`].
    pub fn capabilities(self, rows: usize, cols: usize) -> Vec<OpClassSet> {
        let mut caps = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let mut set = OpClassSet::only(OpClass::Alu);
                let mul = match self {
                    CapabilityProfile::Homogeneous | CapabilityProfile::MemLeftColumn => true,
                    CapabilityProfile::MulCheckerboard
                    | CapabilityProfile::MemLeftMulCheckerboard => (r + c) % 2 == 0,
                };
                let mem = match self {
                    CapabilityProfile::Homogeneous | CapabilityProfile::MulCheckerboard => true,
                    CapabilityProfile::MemLeftColumn
                    | CapabilityProfile::MemLeftMulCheckerboard => c == 0,
                };
                if mul {
                    set = set.with(OpClass::Mul);
                }
                if mem {
                    set = set.with(OpClass::Mem);
                }
                caps.push(set);
            }
        }
        caps
    }
}

impl fmt::Display for CapabilityProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_operations() {
        let s = OpClassSet::empty().with(OpClass::Alu).with(OpClass::Mem);
        assert!(s.contains(OpClass::Alu));
        assert!(s.contains(OpClass::Mem));
        assert!(!s.contains(OpClass::Mul));
        assert!(!s.is_empty());
        assert!(!s.is_all());
        assert!(s.without(OpClass::Alu).without(OpClass::Mem).is_empty());
        assert!(OpClassSet::all().is_all());
        assert!(OpClassSet::all().is_superset_of(s));
        assert!(!s.is_superset_of(OpClassSet::all()));
        assert_eq!(s.union(OpClassSet::only(OpClass::Mul)), OpClassSet::all());
        assert_eq!(OpClassSet::default(), OpClassSet::all());
    }

    #[test]
    fn iteration_and_collect_roundtrip() {
        let s: OpClassSet = [OpClass::Mul, OpClass::Mem].into_iter().collect();
        let back: Vec<OpClass> = s.iter().collect();
        assert_eq!(back, vec![OpClass::Mul, OpClass::Mem]);
        assert_eq!(format!("{s:?}"), "{mul,mem}");
    }

    #[test]
    fn bits_are_stable() {
        // The monomorphism target stores these bits in its capability
        // words; the assignment is part of the serialised format.
        assert_eq!(OpClass::Alu.bit(), 1);
        assert_eq!(OpClass::Mul.bit(), 2);
        assert_eq!(OpClass::Mem.bit(), 4);
        assert_eq!(OpClassSet::all().bits(), 0b111);
    }

    #[test]
    fn profiles_cover_grid_and_keep_alu() {
        for profile in CapabilityProfile::ALL {
            let caps = profile.capabilities(4, 4);
            assert_eq!(caps.len(), 16, "{profile}");
            for (i, &c) in caps.iter().enumerate() {
                assert!(c.contains(OpClass::Alu), "{profile} PE{i}");
                assert!(!c.is_empty(), "{profile} PE{i}");
            }
        }
    }

    #[test]
    fn mem_left_column_layout() {
        let caps = CapabilityProfile::MemLeftColumn.capabilities(3, 4);
        for r in 0..3 {
            for c in 0..4 {
                let set = caps[r * 4 + c];
                assert_eq!(set.contains(OpClass::Mem), c == 0, "({r},{c})");
                assert!(set.contains(OpClass::Mul), "({r},{c})");
            }
        }
    }

    #[test]
    fn mul_checkerboard_layout() {
        let caps = CapabilityProfile::MulCheckerboard.capabilities(4, 4);
        for r in 0..4 {
            for c in 0..4 {
                let set = caps[r * 4 + c];
                assert_eq!(set.contains(OpClass::Mul), (r + c) % 2 == 0, "({r},{c})");
                assert!(set.contains(OpClass::Mem), "({r},{c})");
            }
        }
    }

    #[test]
    fn homogeneous_profile_is_all() {
        assert!(CapabilityProfile::Homogeneous
            .capabilities(2, 2)
            .iter()
            .all(|c| c.is_all()));
    }

    #[test]
    fn serde_roundtrip() {
        let s = OpClassSet::only(OpClass::Mem).with(OpClass::Alu);
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(json, "5");
        let back: OpClassSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn undefined_bits_are_masked_on_load() {
        // A mask with only undefined bits must load as the empty set
        // (and so be rejected by the empty-capability guard), not as a
        // phantom capability.
        let s: OpClassSet = serde_json::from_str("8").unwrap();
        assert!(s.is_empty());
        assert_eq!(s, OpClassSet::empty());
        let s: OpClassSet = serde_json::from_str("15").unwrap();
        assert_eq!(s, OpClassSet::all());
        // Defence in depth: even a hand-rolled out-of-range mask never
        // reads as non-empty.
        assert!(OpClassSet(0b1000).is_empty());
    }
}
