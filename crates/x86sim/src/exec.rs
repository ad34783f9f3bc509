//! Instruction execution.

use asm86::isa::{AluOp, Cond, Insn, Mem, Reg, SegReg, Src};

use crate::cycles::TAKEN_BRANCH_EXTRA;
use crate::desc::Selector;
use crate::fault::{Fault, FaultBuilder, FaultCause};
use crate::machine::{Exit, Machine};

impl Machine {
    #[inline]
    fn src_value(&self, s: Src) -> u32 {
        match s {
            Src::Reg(r) => self.cpu.reg(r),
            Src::Imm(v) => v as u32,
        }
    }

    #[inline]
    fn effective_addr(&self, m: &Mem) -> (SegReg, u32) {
        let base = m.base.map(|r| self.cpu.reg(r)).unwrap_or(0);
        (m.effective_seg(), base.wrapping_add(m.disp as u32))
    }

    #[inline]
    fn read_mem(&mut self, m: &Mem, size: u32) -> Result<u32, FaultBuilder> {
        let (sr, off) = self.effective_addr(m);
        self.read_data(sr, off, size)
    }

    #[inline]
    fn write_mem(&mut self, m: &Mem, size: u32, v: u32) -> Result<(), FaultBuilder> {
        let (sr, off) = self.effective_addr(m);
        self.write_data(sr, off, size, v)
    }

    #[inline]
    fn set_zs(&mut self, v: u32) {
        self.cpu.flags.zf = v == 0;
        self.cpu.flags.sf = (v as i32) < 0;
    }

    #[inline]
    fn alu(&mut self, op: AluOp, dst: u32, src: u32) -> u32 {
        let f = &mut self.cpu.flags;
        let result = match op {
            AluOp::Add => {
                let (r, c) = dst.overflowing_add(src);
                f.cf = c;
                f.of = ((dst ^ r) & (src ^ r)) >> 31 != 0;
                r
            }
            AluOp::Sub => {
                let (r, b) = dst.overflowing_sub(src);
                f.cf = b;
                f.of = ((dst ^ src) & (dst ^ r)) >> 31 != 0;
                r
            }
            AluOp::And => {
                f.cf = false;
                f.of = false;
                dst & src
            }
            AluOp::Or => {
                f.cf = false;
                f.of = false;
                dst | src
            }
            AluOp::Xor => {
                f.cf = false;
                f.of = false;
                dst ^ src
            }
            AluOp::Shl => {
                let n = src & 31;
                if n == 0 {
                    dst
                } else {
                    f.cf = (dst >> (32 - n)) & 1 != 0;
                    f.of = false;
                    dst << n
                }
            }
            AluOp::Shr => {
                let n = src & 31;
                if n == 0 {
                    dst
                } else {
                    f.cf = (dst >> (n - 1)) & 1 != 0;
                    f.of = false;
                    dst >> n
                }
            }
            AluOp::Sar => {
                let n = src & 31;
                if n == 0 {
                    dst
                } else {
                    f.cf = ((dst as i32) >> (n - 1)) & 1 != 0;
                    f.of = false;
                    ((dst as i32) >> n) as u32
                }
            }
            AluOp::Imul => {
                let wide = (dst as i32 as i64) * (src as i32 as i64);
                let r = wide as i32;
                f.cf = wide != r as i64;
                f.of = f.cf;
                r as u32
            }
        };
        self.set_zs(result);
        result
    }

    #[inline]
    fn cond(&self, c: Cond) -> bool {
        let f = &self.cpu.flags;
        match c {
            Cond::E => f.zf,
            Cond::Ne => !f.zf,
            Cond::L => f.sf != f.of,
            Cond::Le => f.zf || f.sf != f.of,
            Cond::G => !f.zf && f.sf == f.of,
            Cond::Ge => f.sf == f.of,
            Cond::B => f.cf,
            Cond::Be => f.cf || f.zf,
            Cond::A => !f.cf && !f.zf,
            Cond::Ae => !f.cf,
            Cond::S => f.sf,
            Cond::Ns => !f.sf,
        }
    }

    /// Executes one decoded instruction.
    ///
    /// `len` is its encoded length (to compute the fall-through EIP).
    /// Inlined into [`Machine::step`] so the run loop
    /// has no call between fetch and execute.
    #[inline(always)]
    pub(crate) fn execute(&mut self, insn: Insn, len: u32) -> Result<Option<Exit>, FaultBuilder> {
        let next = self.cpu.eip.wrapping_add(len);
        match insn {
            Insn::Nop => {}
            Insn::Hlt => {
                if self.cpu.cpl != 0 {
                    return Err(Fault::gp(0, FaultCause::PrivilegedInstruction));
                }
                self.cpu.eip = next;
                return Ok(Some(Exit::Hlt));
            }
            Insn::Mov(r, s) => {
                let v = self.src_value(s);
                self.cpu.set_reg(r, v);
            }
            Insn::Load(r, m) => {
                let v = self.read_mem(&m, 4)?;
                self.cpu.set_reg(r, v);
            }
            Insn::Store(m, s) => {
                let v = self.src_value(s);
                self.write_mem(&m, 4, v)?;
            }
            Insn::LoadB(r, m) => {
                let v = self.read_mem(&m, 1)?;
                self.cpu.set_reg(r, v & 0xFF);
            }
            Insn::StoreB(m, r) => {
                let v = self.cpu.reg(r);
                self.write_mem(&m, 1, v & 0xFF)?;
            }
            Insn::LoadW(r, m) => {
                let v = self.read_mem(&m, 2)?;
                self.cpu.set_reg(r, v & 0xFFFF);
            }
            Insn::StoreW(m, r) => {
                let v = self.cpu.reg(r);
                self.write_mem(&m, 2, v & 0xFFFF)?;
            }
            Insn::MovToSeg(sr, r) => {
                let sel = Selector(self.cpu.reg(r) as u16);
                self.load_data_seg(sr, sel)?;
            }
            Insn::MovFromSeg(r, sr) => {
                let sel = self.cpu.seg(sr).selector.0;
                self.cpu.set_reg(r, sel as u32);
            }
            Insn::Lea(r, m) => {
                let (_, off) = self.effective_addr(&m);
                self.cpu.set_reg(r, off);
            }
            Insn::Push(s) => {
                let v = self.src_value(s);
                self.push32(v)?;
            }
            Insn::PushM(m) => {
                let v = self.read_mem(&m, 4)?;
                self.push32(v)?;
            }
            Insn::PushSeg(sr) => {
                let sel = self.cpu.seg(sr).selector.0;
                self.push32(sel as u32)?;
            }
            Insn::Pop(r) => {
                let v = self.pop32()?;
                self.cpu.set_reg(r, v);
            }
            Insn::PopM(m) => {
                // Pop then store; if the store faults, ESP must be intact —
                // read the value without committing ESP first.
                let v = self.read_data(SegReg::Ss, self.cpu.esp(), 4)?;
                self.write_mem(&m, 4, v)?;
                let esp = self.cpu.esp().wrapping_add(4);
                self.cpu.set_reg(Reg::Esp, esp);
            }
            Insn::PopSeg(sr) => {
                let v = self.read_data(SegReg::Ss, self.cpu.esp(), 4)?;
                self.load_data_seg(sr, Selector(v as u16))?;
                let esp = self.cpu.esp().wrapping_add(4);
                self.cpu.set_reg(Reg::Esp, esp);
            }
            Insn::Alu(op, r, s) => {
                let a = self.cpu.reg(r);
                let b = self.src_value(s);
                let v = self.alu(op, a, b);
                self.cpu.set_reg(r, v);
            }
            Insn::AluM(op, r, m) => {
                let a = self.cpu.reg(r);
                let b = self.read_mem(&m, 4)?;
                let v = self.alu(op, a, b);
                self.cpu.set_reg(r, v);
            }
            Insn::Neg(r) => {
                let v = self.cpu.reg(r);
                self.cpu.flags.cf = v != 0;
                let r2 = (v as i32).wrapping_neg() as u32;
                self.cpu.flags.of = v == 0x8000_0000;
                self.set_zs(r2);
                self.cpu.set_reg(r, r2);
            }
            Insn::Not(r) => {
                let v = !self.cpu.reg(r);
                self.cpu.set_reg(r, v);
            }
            Insn::Inc(r) => {
                let v = self.cpu.reg(r).wrapping_add(1);
                self.cpu.flags.of = v == 0x8000_0000;
                self.set_zs(v);
                self.cpu.set_reg(r, v);
            }
            Insn::Dec(r) => {
                let v = self.cpu.reg(r).wrapping_sub(1);
                self.cpu.flags.of = v == 0x7FFF_FFFF;
                self.set_zs(v);
                self.cpu.set_reg(r, v);
            }
            Insn::Cmp(r, s) => {
                let a = self.cpu.reg(r);
                let b = self.src_value(s);
                self.alu(AluOp::Sub, a, b);
            }
            Insn::CmpM(m, s) => {
                let a = self.read_mem(&m, 4)?;
                let b = self.src_value(s);
                self.alu(AluOp::Sub, a, b);
            }
            Insn::Test(r, s) => {
                let a = self.cpu.reg(r);
                let b = self.src_value(s);
                self.alu(AluOp::And, a, b);
            }
            Insn::Jmp(rel) => {
                self.cpu.eip = next.wrapping_add(rel as u32);
                return Ok(None);
            }
            Insn::JmpReg(r) => {
                self.cpu.eip = self.cpu.reg(r);
                return Ok(None);
            }
            Insn::JmpM(m) => {
                let target = self.read_mem(&m, 4)?;
                self.cpu.eip = target;
                return Ok(None);
            }
            Insn::Jcc(c, rel) => {
                if self.cond(c) {
                    self.charge(TAKEN_BRANCH_EXTRA);
                    self.cpu.eip = next.wrapping_add(rel as u32);
                    return Ok(None);
                }
            }
            Insn::Call(rel) => {
                self.push32(next)?;
                self.cpu.eip = next.wrapping_add(rel as u32);
                return Ok(None);
            }
            Insn::CallReg(r) => {
                let target = self.cpu.reg(r);
                self.push32(next)?;
                self.cpu.eip = target;
                return Ok(None);
            }
            Insn::CallM(m) => {
                let target = self.read_mem(&m, 4)?;
                self.push32(next)?;
                self.cpu.eip = target;
                return Ok(None);
            }
            Insn::Ret => {
                let ra = self.pop32()?;
                self.cpu.eip = ra;
                return Ok(None);
            }
            Insn::RetN(n) => {
                let ra = self.pop32()?;
                let esp = self.cpu.esp().wrapping_add(n as u32);
                self.cpu.set_reg(Reg::Esp, esp);
                self.cpu.eip = ra;
                return Ok(None);
            }
            Insn::Lcall(sel, off) => {
                self.exec_lcall(Selector(sel), off, next)?;
                return Ok(None);
            }
            Insn::Lret => {
                self.exec_lret(0)?;
                return Ok(None);
            }
            Insn::LretN(n) => {
                self.exec_lret(n as u32)?;
                return Ok(None);
            }
            Insn::Int(vec) => {
                return self.exec_int(vec, next).map(Some);
            }
            Insn::Iret => {
                self.exec_iret()?;
                return Ok(None);
            }
            Insn::Rdtsc => {
                let c = self.cycles();
                self.cpu.set_reg(Reg::Eax, c as u32);
                self.cpu.set_reg(Reg::Edx, (c >> 32) as u32);
            }
            Insn::Wrpkru(s) => {
                // Gate integrity: user code may only write key rights
                // from loader-registered gate sites; supervisor code can
                // rewrite page tables anyway, so it writes from anywhere.
                if self.cpu.cpl == 3 {
                    let site = self.cpu.seg(SegReg::Cs).base.wrapping_add(self.cpu.eip);
                    if !self.key_gate_registered(site) {
                        return Err(Fault::gp(0, FaultCause::KeyGateViolation { site }));
                    }
                }
                self.cpu.pkru = self.src_value(s);
            }
            Insn::Rdpkru(r) => {
                let v = self.cpu.pkru;
                self.cpu.set_reg(r, v);
            }
        }
        self.cpu.eip = next;
        Ok(None)
    }
}
