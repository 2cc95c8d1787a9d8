//! Bit-level encoding of branch instructions.
//!
//! The paper's ST/MT annotation scheme lives inside a real instruction
//! word: "The compiler/linker can annotate indirect branches by setting
//! one bit in their 16-bit displacement field ... the displacement field
//! of indirect branches is not used during instruction execution" (§5).
//! This module gives that contract a concrete 32-bit Alpha-like layout so
//! the claim "this modification will not modify the ISA" is checkable in
//! code:
//!
//! ```text
//!  31    26 25  21 20  16 15           0
//! ┌────────┬──────┬──────┬──────────────┐
//! │ opcode │  ra  │  rb  │ displacement │  memory-format (jmp/jsr/ret)
//! └────────┴──────┴──────┴──────────────┘
//! ```
//!
//! Only the control-flow-relevant opcodes are modelled; everything else
//! decodes as [`DecodedInstr::Other`].

use crate::branch::{BranchClass, IndirectOp, TargetArity};
use crate::instr::StMtAnnotation;

/// Opcode values for the modelled control-flow instructions (six bits).
/// Values follow the Alpha AXP opcode map where one exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Memory-format jump group (`jmp`/`jsr`/`ret`/`jsr_coroutine`,
    /// selected by the high two displacement bits in real Alpha; here by
    /// the `hint` field below).
    Jump = 0x1A,
    /// Conditional branch (`beq`-style).
    CondBranch = 0x39,
    /// Unconditional branch (`br`).
    Br = 0x30,
    /// Branch to subroutine (`bsr`).
    Bsr = 0x34,
}

/// The two-bit jump-kind hint of the memory-format jump group.
const HINT_JMP: u16 = 0b00;
const HINT_JSR: u16 = 0b01;
const HINT_RET: u16 = 0b10;
const HINT_JSR_CO: u16 = 0b11;
/// The hint occupies displacement bits 14..16; the MT annotation bit of
/// `StMtAnnotation` occupies bit 15 of the *annotated* field, so for
/// indirect branches we carve the layout as: bits 15..14 = hint,
/// bit 13 = MT flag, bits 0..13 = free payload.
const MT_BIT: u16 = 1 << 13;

/// A decoded control-flow instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodedInstr {
    /// A branch with its classification and raw displacement payload.
    Branch {
        /// The branch classification (including decoded ST/MT arity for
        /// indirect `jmp`/`jsr`).
        class: BranchClass,
        /// The unannotated displacement payload bits.
        displacement: u16,
    },
    /// Any word that is not a modelled control-flow instruction.
    Other(u32),
}

/// Encodes a branch instruction word.
///
/// Register fields are fixed (`ra = 26`, the Alpha return-address register,
/// `rb = 27`) — they carry no information this model uses.
///
/// # Panics
///
/// Panics if `displacement` exceeds 13 bits for indirect branches (the
/// hint and MT fields need the top three).
pub fn encode(class: BranchClass, displacement: u16) -> u32 {
    let (opcode, disp) = match class {
        BranchClass::ConditionalDirect => (Opcode::CondBranch, displacement),
        BranchClass::UnconditionalDirect { is_call } => (
            if is_call { Opcode::Bsr } else { Opcode::Br },
            displacement,
        ),
        BranchClass::Indirect { op, arity } => {
            assert!(
                displacement < (1 << 13),
                "indirect displacement payload is 13 bits"
            );
            let hint = match op {
                IndirectOp::Jmp => HINT_JMP,
                IndirectOp::Jsr => HINT_JSR,
                IndirectOp::Ret => HINT_RET,
                IndirectOp::JsrCoroutine => HINT_JSR_CO,
            };
            let mt = match (op, arity) {
                (IndirectOp::Ret, _) => 0,
                (_, TargetArity::Multiple) => MT_BIT,
                (_, TargetArity::Single) => 0,
            };
            (Opcode::Jump, (hint << 14) | mt | displacement)
        }
    };
    ((opcode as u32) << 26) | (26 << 21) | (27 << 16) | disp as u32
}

/// Decodes an instruction word.
pub fn decode(word: u32) -> DecodedInstr {
    let opcode = (word >> 26) as u8;
    let disp = (word & 0xFFFF) as u16;
    match opcode {
        x if x == Opcode::CondBranch as u8 => DecodedInstr::Branch {
            class: BranchClass::ConditionalDirect,
            displacement: disp,
        },
        x if x == Opcode::Br as u8 => DecodedInstr::Branch {
            class: BranchClass::UnconditionalDirect { is_call: false },
            displacement: disp,
        },
        x if x == Opcode::Bsr as u8 => DecodedInstr::Branch {
            class: BranchClass::UnconditionalDirect { is_call: true },
            displacement: disp,
        },
        x if x == Opcode::Jump as u8 => {
            let hint = disp >> 14;
            let mt = disp & MT_BIT != 0;
            let payload = disp & (MT_BIT - 1);
            let (op, arity) = match hint {
                HINT_JMP => (IndirectOp::Jmp, arity_of(mt)),
                HINT_JSR => (IndirectOp::Jsr, arity_of(mt)),
                HINT_RET => (IndirectOp::Ret, TargetArity::Multiple),
                _ => (IndirectOp::JsrCoroutine, arity_of(mt)),
            };
            DecodedInstr::Branch {
                class: BranchClass::Indirect { op, arity },
                displacement: payload,
            }
        }
        _ => DecodedInstr::Other(word),
    }
}

fn arity_of(mt: bool) -> TargetArity {
    if mt {
        TargetArity::Multiple
    } else {
        TargetArity::Single
    }
}

/// Extracts the BIU-relevant facts from an instruction word at fetch:
/// whether it is an indirect branch and, if annotated, its ST/MT bit —
/// exactly what the paper's Branch Identification Unit records.
pub fn biu_view(word: u32) -> Option<StMtAnnotation> {
    match decode(word) {
        DecodedInstr::Branch {
            class:
                BranchClass::Indirect {
                    op: IndirectOp::Jmp | IndirectOp::Jsr,
                    arity,
                },
            ..
        } => Some(StMtAnnotation::new(arity)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_classes() -> Vec<BranchClass> {
        vec![
            BranchClass::ConditionalDirect,
            BranchClass::UnconditionalDirect { is_call: false },
            BranchClass::UnconditionalDirect { is_call: true },
            BranchClass::mt_jmp(),
            BranchClass::Indirect {
                op: IndirectOp::Jmp,
                arity: TargetArity::Single,
            },
            BranchClass::mt_jsr(),
            BranchClass::st_jsr(),
            BranchClass::ret(),
            BranchClass::Indirect {
                op: IndirectOp::JsrCoroutine,
                arity: TargetArity::Multiple,
            },
        ]
    }

    #[test]
    fn every_class_round_trips() {
        for class in all_classes() {
            let disp = 0x123;
            let word = encode(class, disp);
            match decode(word) {
                DecodedInstr::Branch {
                    class: got,
                    displacement,
                } => {
                    assert_eq!(got, class, "class mismatch for {class}");
                    assert_eq!(displacement, disp);
                }
                other => panic!("{class} decoded to {other:?}"),
            }
        }
    }

    #[test]
    fn mt_bit_is_inside_the_displacement_field() {
        // The paper's compatibility claim: flipping the annotation only
        // changes displacement bits, never opcode or register fields.
        let st = encode(BranchClass::st_jsr(), 0);
        let mt = encode(BranchClass::mt_jsr(), 0);
        assert_eq!(st >> 16, mt >> 16, "only the low half may differ");
        assert_eq!((st ^ mt) & 0xFFFF, MT_BIT as u32);
    }

    #[test]
    fn biu_view_reports_annotated_indirects_only() {
        assert_eq!(
            biu_view(encode(BranchClass::mt_jsr(), 7)).map(|a| a.arity()),
            Some(TargetArity::Multiple)
        );
        assert_eq!(
            biu_view(encode(BranchClass::st_jsr(), 7)).map(|a| a.arity()),
            Some(TargetArity::Single)
        );
        assert!(biu_view(encode(BranchClass::ret(), 0)).is_none());
        assert!(biu_view(encode(BranchClass::ConditionalDirect, 0)).is_none());
        assert!(biu_view(0xDEAD_BEEF).is_none());
    }

    #[test]
    fn non_branch_words_decode_as_other() {
        // opcode 0x00 is not a modelled branch
        assert_eq!(decode(0x0000_1234), DecodedInstr::Other(0x1234));
    }

    #[test]
    #[should_panic(expected = "13 bits")]
    fn oversized_indirect_displacement_panics() {
        let _ = encode(BranchClass::mt_jmp(), 1 << 13);
    }

    #[test]
    fn ret_has_no_mt_bit() {
        let word = encode(BranchClass::ret(), 0x55);
        match decode(word) {
            DecodedInstr::Branch { class, .. } => assert!(class.is_return()),
            _ => panic!("ret must decode as a branch"),
        }
    }
}
