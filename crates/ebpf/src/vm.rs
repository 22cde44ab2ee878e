//! A bytecode-level BPF virtual machine.
//!
//! The tracers in this crate dispatch probes through fast native handlers
//! whose behaviour is *specified* by [`crate::ProgramSpec`]s. This module
//! provides the layer below: a register machine executing a subset of the
//! eBPF instruction set, with the helper interface the paper's programs
//! use (`bpf_ktime_get_ns`, `bpf_get_current_pid_tgid`, map access,
//! `bpf_probe_read_user`, `bpf_perf_event_output`) and a *static verifier*
//! enforcing the load-time guarantees the kernel gives: bounded program
//! size, in-bounds forward-only jumps (hence guaranteed termination),
//! terminal `exit`, and known helpers. Memory safety is enforced by the
//! interpreter through region-tagged pointers (context, stack) with bounds
//! checks — a dynamic rendition of the kernel verifier's static pointer
//! tracking.
//!
//! [`programs`] contains Table I probe programs written in this bytecode —
//! including the two-program `rmw_take_*` pair that stores the `srcTS`
//! address in a map at function entry and dereferences it at exit — and
//! tests assert they reconstruct the same information as the native
//! handlers.

use crate::map::BpfMap;
use std::collections::HashMap;
use std::fmt;

/// Registers `r0`–`r10` (`r10` is the read-only frame pointer).
pub type Reg = u8;

/// Stack size per program, as in the kernel.
pub const STACK_SIZE: usize = 512;

/// Base of the stack address region (grows down from `STACK_BASE +
/// STACK_SIZE`).
pub const STACK_BASE: u64 = 0x1000_0000_0000;
/// Base of the read-only context region.
pub const CTX_BASE: u64 = 0x2000_0000_0000;

/// Helper function identifiers callable via [`Insn::Call`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HelperId {
    /// `r0 = monotonic time (ns)`.
    KtimeGetNs,
    /// `r0 = current PID`.
    GetCurrentPidTgid,
    /// `r0 = map[r1]` (0 when absent).
    MapLookup,
    /// `map[r1] = r2; r0 = 0`.
    MapUpdate,
    /// `r0 = old map[r1]` (0 when absent), entry removed.
    MapDelete,
    /// `r0 = *(u64 *)r1` in (simulated) user memory.
    ProbeReadUser,
    /// Export `r2` bytes starting at pointer `r1` to the perf buffer;
    /// `r0 = 0`.
    PerfEventOutput,
}

/// The instruction subset (semantics follow classic eBPF; all ALU is
/// 64-bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insn {
    /// `dst = imm`
    MovImm(Reg, i64),
    /// `dst = src`
    MovReg(Reg, Reg),
    /// `dst += imm`
    AddImm(Reg, i64),
    /// `dst += src`
    AddReg(Reg, Reg),
    /// `dst -= src`
    SubReg(Reg, Reg),
    /// `dst &= imm`
    AndImm(Reg, i64),
    /// `dst >>= imm` (logical)
    RshImm(Reg, u32),
    /// `dst <<= imm`
    LshImm(Reg, u32),
    /// `dst = *(u64 *)(src + off)`
    LdxDw(Reg, Reg, i16),
    /// `dst = *(u32 *)(src + off)` (zero-extended)
    LdxW(Reg, Reg, i16),
    /// `*(u64 *)(dst + off) = src`
    StxDw(Reg, i16, Reg),
    /// `*(u32 *)(dst + off) = src as u32`
    StxW(Reg, i16, Reg),
    /// Unconditional forward jump by `off` instructions.
    Ja(i16),
    /// `if dst == imm: jump off`
    JeqImm(Reg, i64, i16),
    /// `if dst != imm: jump off`
    JneImm(Reg, i64, i16),
    /// `if dst == src: jump off`
    JeqReg(Reg, Reg, i16),
    /// Call a helper.
    Call(HelperId),
    /// Terminate; `r0` is the return value.
    Exit,
}

/// A verified-loadable program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    insns: Vec<Insn>,
}

/// Rejection reasons from the bytecode verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmVerifyError {
    /// More instructions than the 4096 limit.
    TooLong(usize),
    /// A jump leaves the program or goes backwards.
    BadJump {
        /// Instruction index of the offending jump.
        at: usize,
    },
    /// The program can fall off the end without `Exit`.
    MissingExit,
    /// Write to the read-only frame pointer `r10`.
    FramePointerWrite {
        /// Instruction index of the offending write.
        at: usize,
    },
    /// Register index out of range.
    BadRegister {
        /// Instruction index of the offending use.
        at: usize,
    },
}

impl fmt::Display for VmVerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmVerifyError::TooLong(n) => write!(f, "program has {n} instructions, limit 4096"),
            VmVerifyError::BadJump { at } => write!(f, "jump at {at} leaves program or loops"),
            VmVerifyError::MissingExit => write!(f, "program can fall off the end"),
            VmVerifyError::FramePointerWrite { at } => write!(f, "write to r10 at {at}"),
            VmVerifyError::BadRegister { at } => write!(f, "bad register index at {at}"),
        }
    }
}

impl std::error::Error for VmVerifyError {}

impl Program {
    /// Verifies and loads a program.
    ///
    /// # Errors
    ///
    /// Returns the first violated structural guarantee. Forward-only jumps
    /// make every accepted program loop-free, so termination is decided at
    /// load time — the property the kernel verifier establishes with its
    /// (more general) CFG analysis.
    pub fn load(insns: Vec<Insn>) -> Result<Program, VmVerifyError> {
        if insns.len() > 4096 {
            return Err(VmVerifyError::TooLong(insns.len()));
        }
        let len = insns.len() as i64;
        let mut can_fall_through = true;
        for (i, insn) in insns.iter().enumerate() {
            let regs: &[Reg] = match insn {
                Insn::MovImm(d, _)
                | Insn::AddImm(d, _)
                | Insn::AndImm(d, _)
                | Insn::RshImm(d, _)
                | Insn::LshImm(d, _) => std::slice::from_ref(d),
                Insn::MovReg(d, s)
                | Insn::AddReg(d, s)
                | Insn::SubReg(d, s)
                | Insn::LdxDw(d, s, _)
                | Insn::LdxW(d, s, _)
                | Insn::StxDw(d, _, s)
                | Insn::StxW(d, _, s) => {
                    // stores write memory, not registers — but both
                    // register operands must be valid
                    if *d > 10 || *s > 10 {
                        return Err(VmVerifyError::BadRegister { at: i });
                    }
                    &[]
                }
                Insn::JeqImm(d, _, _) | Insn::JneImm(d, _, _) => std::slice::from_ref(d),
                Insn::JeqReg(d, s, _) => {
                    if *d > 10 || *s > 10 {
                        return Err(VmVerifyError::BadRegister { at: i });
                    }
                    &[]
                }
                Insn::Ja(_) | Insn::Call(_) | Insn::Exit => &[],
            };
            for r in regs {
                if *r > 10 {
                    return Err(VmVerifyError::BadRegister { at: i });
                }
            }
            // r10 is read-only.
            let writes_r10 = matches!(
                insn,
                Insn::MovImm(10, _)
                    | Insn::MovReg(10, _)
                    | Insn::AddImm(10, _)
                    | Insn::AddReg(10, _)
                    | Insn::SubReg(10, _)
                    | Insn::AndImm(10, _)
                    | Insn::RshImm(10, _)
                    | Insn::LshImm(10, _)
                    | Insn::LdxDw(10, _, _)
                    | Insn::LdxW(10, _, _)
            );
            if writes_r10 {
                return Err(VmVerifyError::FramePointerWrite { at: i });
            }
            // Jumps: strictly forward, in bounds.
            let off = match insn {
                Insn::Ja(o)
                | Insn::JeqImm(_, _, o)
                | Insn::JneImm(_, _, o)
                | Insn::JeqReg(_, _, o) => Some(*o as i64),
                _ => None,
            };
            if let Some(o) = off {
                let target = i as i64 + 1 + o;
                if o < 0 || target > len {
                    return Err(VmVerifyError::BadJump { at: i });
                }
            }
            if i + 1 == insns.len() {
                can_fall_through = !matches!(insn, Insn::Exit | Insn::Ja(_));
            }
        }
        if insns.is_empty() || can_fall_through {
            return Err(VmVerifyError::MissingExit);
        }
        Ok(Program { insns })
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// Whether the program is empty (it cannot be: `load` rejects that).
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }
}

/// Runtime faults (the dynamic complement of the static verifier).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmFault {
    /// Memory access outside the context or stack regions.
    BadAccess {
        /// The faulting address.
        addr: u64,
    },
    /// `probe_read_user` of an unmapped address.
    BadUserRead {
        /// The faulting address.
        addr: u64,
    },
    /// `perf_event_output` with an out-of-range pointer/length.
    BadOutput,
}

impl fmt::Display for VmFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmFault::BadAccess { addr } => write!(f, "invalid memory access at {addr:#x}"),
            VmFault::BadUserRead { addr } => write!(f, "invalid user read at {addr:#x}"),
            VmFault::BadOutput => write!(f, "invalid perf_event_output"),
        }
    }
}

impl std::error::Error for VmFault {}

/// The attachment environment of one program invocation: the probe
/// context bytes, the clock/PID the helpers expose, simulated user memory
/// for `probe_read_user`, and the bound map.
pub struct VmEnv<'a> {
    /// Read-only probe context (the argument struct image).
    pub ctx: &'a [u8],
    /// `bpf_ktime_get_ns` result.
    pub now_ns: u64,
    /// `bpf_get_current_pid_tgid` result (PID part).
    pub pid: u32,
    /// Simulated user memory for `bpf_probe_read_user`.
    pub user_mem: &'a HashMap<u64, u64>,
    /// The map bound to the program.
    pub map: &'a BpfMap<u64, u64>,
}

/// Result of one program run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmRun {
    /// `r0` at `exit`.
    pub ret: u64,
    /// Records exported via `perf_event_output`, in order.
    pub output: Vec<Vec<u8>>,
}

/// Executes a verified program.
///
/// # Errors
///
/// Returns a [`VmFault`] on out-of-bounds memory access, unmapped user
/// reads, or invalid output requests. Termination is guaranteed by the
/// verifier (forward-only jumps).
pub fn run(program: &Program, env: &VmEnv<'_>) -> Result<VmRun, VmFault> {
    let mut regs = [0u64; 11];
    regs[1] = CTX_BASE;
    regs[10] = STACK_BASE + STACK_SIZE as u64;
    let mut stack = [0u8; STACK_SIZE];
    let mut output = Vec::new();

    // Resolves an address to (region bytes, offset) for `len` bytes.
    enum Region {
        Stack(usize),
        Ctx(usize),
    }
    let resolve = |addr: u64, len: usize, ctx_len: usize| -> Result<Region, VmFault> {
        if addr >= STACK_BASE && addr + len as u64 <= STACK_BASE + STACK_SIZE as u64 {
            Ok(Region::Stack((addr - STACK_BASE) as usize))
        } else if addr >= CTX_BASE && addr + len as u64 <= CTX_BASE + ctx_len as u64 {
            Ok(Region::Ctx((addr - CTX_BASE) as usize))
        } else {
            Err(VmFault::BadAccess { addr })
        }
    };

    let mut pc = 0usize;
    while pc < program.insns.len() {
        let insn = program.insns[pc];
        pc += 1;
        match insn {
            Insn::MovImm(d, imm) => regs[d as usize] = imm as u64,
            Insn::MovReg(d, s) => regs[d as usize] = regs[s as usize],
            Insn::AddImm(d, imm) => {
                regs[d as usize] = regs[d as usize].wrapping_add(imm as u64)
            }
            Insn::AddReg(d, s) => {
                regs[d as usize] = regs[d as usize].wrapping_add(regs[s as usize])
            }
            Insn::SubReg(d, s) => {
                regs[d as usize] = regs[d as usize].wrapping_sub(regs[s as usize])
            }
            Insn::AndImm(d, imm) => regs[d as usize] &= imm as u64,
            Insn::RshImm(d, sh) => regs[d as usize] >>= sh.min(63),
            Insn::LshImm(d, sh) => regs[d as usize] <<= sh.min(63),
            Insn::LdxDw(d, s, off) => {
                let addr = regs[s as usize].wrapping_add(off as u64);
                let v = match resolve(addr, 8, env.ctx.len())? {
                    Region::Stack(o) => {
                        u64::from_le_bytes(stack[o..o + 8].try_into().expect("8 bytes"))
                    }
                    Region::Ctx(o) => {
                        u64::from_le_bytes(env.ctx[o..o + 8].try_into().expect("8 bytes"))
                    }
                };
                regs[d as usize] = v;
            }
            Insn::LdxW(d, s, off) => {
                let addr = regs[s as usize].wrapping_add(off as u64);
                let v = match resolve(addr, 4, env.ctx.len())? {
                    Region::Stack(o) => {
                        u32::from_le_bytes(stack[o..o + 4].try_into().expect("4 bytes"))
                    }
                    Region::Ctx(o) => {
                        u32::from_le_bytes(env.ctx[o..o + 4].try_into().expect("4 bytes"))
                    }
                };
                regs[d as usize] = u64::from(v);
            }
            Insn::StxDw(d, off, s) => {
                let addr = regs[d as usize].wrapping_add(off as u64);
                match resolve(addr, 8, env.ctx.len())? {
                    Region::Stack(o) => {
                        stack[o..o + 8].copy_from_slice(&regs[s as usize].to_le_bytes())
                    }
                    Region::Ctx(_) => return Err(VmFault::BadAccess { addr }),
                }
            }
            Insn::StxW(d, off, s) => {
                let addr = regs[d as usize].wrapping_add(off as u64);
                match resolve(addr, 4, env.ctx.len())? {
                    Region::Stack(o) => stack[o..o + 4]
                        .copy_from_slice(&(regs[s as usize] as u32).to_le_bytes()),
                    Region::Ctx(_) => return Err(VmFault::BadAccess { addr }),
                }
            }
            Insn::Ja(off) => pc = (pc as i64 + off as i64) as usize,
            Insn::JeqImm(d, imm, off) => {
                if regs[d as usize] == imm as u64 {
                    pc = (pc as i64 + off as i64) as usize;
                }
            }
            Insn::JneImm(d, imm, off) => {
                if regs[d as usize] != imm as u64 {
                    pc = (pc as i64 + off as i64) as usize;
                }
            }
            Insn::JeqReg(d, s, off) => {
                if regs[d as usize] == regs[s as usize] {
                    pc = (pc as i64 + off as i64) as usize;
                }
            }
            Insn::Call(helper) => match helper {
                HelperId::KtimeGetNs => regs[0] = env.now_ns,
                HelperId::GetCurrentPidTgid => regs[0] = u64::from(env.pid),
                HelperId::MapLookup => {
                    regs[0] = env.map.lookup(&regs[1]).unwrap_or(0);
                }
                HelperId::MapUpdate => {
                    let _ = env.map.update(regs[1], regs[2]);
                    regs[0] = 0;
                }
                HelperId::MapDelete => {
                    regs[0] = env.map.delete(&regs[1]).unwrap_or(0);
                }
                HelperId::ProbeReadUser => {
                    regs[0] = *env
                        .user_mem
                        .get(&regs[1])
                        .ok_or(VmFault::BadUserRead { addr: regs[1] })?;
                }
                HelperId::PerfEventOutput => {
                    let len = regs[2] as usize;
                    if len > STACK_SIZE + env.ctx.len() {
                        return Err(VmFault::BadOutput);
                    }
                    let bytes = match resolve(regs[1], len, env.ctx.len())
                        .map_err(|_| VmFault::BadOutput)?
                    {
                        Region::Stack(o) => stack[o..o + len].to_vec(),
                        Region::Ctx(o) => env.ctx[o..o + len].to_vec(),
                    };
                    output.push(bytes);
                    regs[0] = 0;
                }
            },
            Insn::Exit => return Ok(VmRun { ret: regs[0], output }),
        }
    }
    unreachable!("verifier guarantees terminal exit")
}

/// Table I probe programs written in VM bytecode.
///
/// Context layouts are little-endian structs mirroring what the real
/// programs traverse from the probed function's arguments:
///
/// - `dds_write_impl` (P16): `[topic_hash: u64][src_ts: u64]`
/// - `rmw_take_*` entry: `[src_ts_addr: u64]`
/// - `rmw_take_*` exit: `[cb_id: u64][topic_hash: u64][src_ts_addr: u64]`
///
/// Exported records start with `[now: u64][pid: u64]` followed by the
/// program-specific payload.
pub mod programs {
    use super::*;

    /// P16 — export `[now][pid][topic_hash][src_ts]` on every write.
    pub fn dds_write() -> Program {
        Program::load(vec![
            // r6 = ctx
            Insn::MovReg(6, 1),
            // stack[-32] = now
            Insn::Call(HelperId::KtimeGetNs),
            Insn::StxDw(10, -32, 0),
            // stack[-24] = pid
            Insn::Call(HelperId::GetCurrentPidTgid),
            Insn::StxDw(10, -24, 0),
            // stack[-16] = ctx.topic_hash
            Insn::LdxDw(2, 6, 0),
            Insn::StxDw(10, -16, 2),
            // stack[-8] = ctx.src_ts
            Insn::LdxDw(2, 6, 8),
            Insn::StxDw(10, -8, 2),
            // perf_event_output(&stack[-32], 32)
            Insn::MovReg(1, 10),
            Insn::AddImm(1, -32),
            Insn::MovImm(2, 32),
            Insn::Call(HelperId::PerfEventOutput),
            Insn::MovImm(0, 0),
            Insn::Exit,
        ])
        .expect("dds_write program verifies")
    }

    /// `rmw_take_*` entry half — remember the out-parameter address:
    /// `map[pid] = ctx.src_ts_addr`.
    pub fn take_entry() -> Program {
        Program::load(vec![
            Insn::MovReg(6, 1),
            Insn::Call(HelperId::GetCurrentPidTgid),
            Insn::MovReg(7, 0), // r7 = pid
            Insn::LdxDw(8, 6, 0), // r8 = src_ts_addr
            Insn::MovReg(1, 7),
            Insn::MovReg(2, 8),
            Insn::Call(HelperId::MapUpdate),
            Insn::MovImm(0, 0),
            Insn::Exit,
        ])
        .expect("take_entry program verifies")
    }

    /// `rmw_take_*` exit half — retrieve the stored address, check it
    /// matches this frame, dereference it, and export
    /// `[now][pid][cb_id][topic_hash][src_ts]`. Returns 1 when exported,
    /// 0 when the addresses mismatched (nested/unmatched take).
    pub fn take_exit() -> Program {
        Program::load(vec![
            Insn::MovReg(6, 1),
            // r7 = pid
            Insn::Call(HelperId::GetCurrentPidTgid),
            Insn::MovReg(7, 0),
            // r8 = map_delete(pid)  (stored srcTS address)
            Insn::MovReg(1, 7),
            Insn::Call(HelperId::MapDelete),
            Insn::MovReg(8, 0),
            // r9 = ctx.src_ts_addr; bail unless identical
            Insn::LdxDw(9, 6, 16),
            Insn::JeqReg(8, 9, 2),
            Insn::MovImm(0, 0),
            Insn::Exit,
            // r9 = *src_ts_addr (the value low-level DDS wrote meanwhile)
            Insn::MovReg(1, 8),
            Insn::Call(HelperId::ProbeReadUser),
            Insn::MovReg(9, 0),
            // record = [now][pid][cb_id][topic_hash][src_ts]
            Insn::Call(HelperId::KtimeGetNs),
            Insn::StxDw(10, -40, 0),
            Insn::StxDw(10, -32, 7),
            Insn::LdxDw(2, 6, 0),
            Insn::StxDw(10, -24, 2),
            Insn::LdxDw(2, 6, 8),
            Insn::StxDw(10, -16, 2),
            Insn::StxDw(10, -8, 9),
            Insn::MovReg(1, 10),
            Insn::AddImm(1, -40),
            Insn::MovImm(2, 40),
            Insn::Call(HelperId::PerfEventOutput),
            Insn::MovImm(0, 1),
            Insn::Exit,
        ])
        .expect("take_exit program verifies")
    }
}

#[cfg(test)]
mod tests {
    use super::programs::{dds_write, take_entry, take_exit};
    use super::*;

    fn env<'a>(
        ctx: &'a [u8],
        user: &'a HashMap<u64, u64>,
        map: &'a BpfMap<u64, u64>,
    ) -> VmEnv<'a> {
        VmEnv { ctx, now_ns: 123_456, pid: 42, user_mem: user, map }
    }

    #[test]
    fn verifier_rejects_backward_jump() {
        let r = Program::load(vec![Insn::Ja(-1), Insn::Exit]);
        assert!(matches!(r, Err(VmVerifyError::BadJump { at: 0 })));
    }

    #[test]
    fn verifier_rejects_out_of_bounds_jump() {
        let r = Program::load(vec![Insn::JeqImm(0, 0, 5), Insn::Exit]);
        assert!(matches!(r, Err(VmVerifyError::BadJump { at: 0 })));
    }

    #[test]
    fn verifier_rejects_missing_exit() {
        let r = Program::load(vec![Insn::MovImm(0, 1)]);
        assert_eq!(r, Err(VmVerifyError::MissingExit));
        assert_eq!(Program::load(vec![]), Err(VmVerifyError::MissingExit));
    }

    #[test]
    fn verifier_rejects_frame_pointer_write() {
        let r = Program::load(vec![Insn::MovImm(10, 0), Insn::Exit]);
        assert!(matches!(r, Err(VmVerifyError::FramePointerWrite { at: 0 })));
    }

    #[test]
    fn verifier_rejects_bad_register() {
        let r = Program::load(vec![Insn::MovImm(11, 0), Insn::Exit]);
        assert!(matches!(r, Err(VmVerifyError::BadRegister { at: 0 })));
    }

    #[test]
    fn verifier_rejects_oversized_program() {
        let mut insns = vec![Insn::MovImm(0, 0); 4097];
        *insns.last_mut().expect("non-empty") = Insn::Exit;
        assert!(matches!(Program::load(insns), Err(VmVerifyError::TooLong(4097))));
    }

    #[test]
    fn runtime_faults_on_wild_access() {
        let p = Program::load(vec![
            Insn::MovImm(1, 0x9999),
            Insn::LdxDw(0, 1, 0),
            Insn::Exit,
        ])
        .expect("verifies");
        let user = HashMap::new();
        let map = BpfMap::new("m", 8);
        let e = env(&[], &user, &map);
        assert!(matches!(run(&p, &e), Err(VmFault::BadAccess { .. })));
    }

    #[test]
    fn context_is_read_only() {
        let p = Program::load(vec![
            Insn::StxDw(1, 0, 0), // store to ctx pointer
            Insn::Exit,
        ])
        .expect("verifies");
        let ctx = [0u8; 16];
        let user = HashMap::new();
        let map = BpfMap::new("m", 8);
        let e = env(&ctx, &user, &map);
        assert!(matches!(run(&p, &e), Err(VmFault::BadAccess { .. })));
    }

    #[test]
    fn helpers_and_arithmetic() {
        // r0 = (now + pid) << 1
        let p = Program::load(vec![
            Insn::Call(HelperId::KtimeGetNs),
            Insn::MovReg(6, 0),
            Insn::Call(HelperId::GetCurrentPidTgid),
            Insn::AddReg(6, 0),
            Insn::LshImm(6, 1),
            Insn::MovReg(0, 6),
            Insn::Exit,
        ])
        .expect("verifies");
        let user = HashMap::new();
        let map = BpfMap::new("m", 8);
        let e = env(&[], &user, &map);
        let r = run(&p, &e).expect("runs");
        assert_eq!(r.ret, (123_456 + 42) << 1);
    }

    #[test]
    fn dds_write_program_exports_the_table_i_payload() {
        let mut ctx = Vec::new();
        ctx.extend_from_slice(&0xfeed_u64.to_le_bytes()); // topic hash
        ctx.extend_from_slice(&777_u64.to_le_bytes()); // src_ts
        let user = HashMap::new();
        let map = BpfMap::new("m", 8);
        let e = env(&ctx, &user, &map);
        let r = run(&dds_write(), &e).expect("runs");
        assert_eq!(r.output.len(), 1);
        let rec = &r.output[0];
        assert_eq!(rec.len(), 32);
        assert_eq!(u64::from_le_bytes(rec[0..8].try_into().expect("8")), 123_456);
        assert_eq!(u64::from_le_bytes(rec[8..16].try_into().expect("8")), 42);
        assert_eq!(u64::from_le_bytes(rec[16..24].try_into().expect("8")), 0xfeed);
        assert_eq!(u64::from_le_bytes(rec[24..32].try_into().expect("8")), 777);
    }

    #[test]
    fn take_pair_reproduces_the_src_ts_technique() {
        // Entry: function called with an out-parameter at address A whose
        // value is not yet written.
        let addr: u64 = 0xdead_beef_0000;
        let map: BpfMap<u64, u64> = BpfMap::new("inflight", 8);
        let user_at_entry = HashMap::new();
        let entry_ctx = addr.to_le_bytes().to_vec();
        let e = env(&entry_ctx, &user_at_entry, &map);
        let r = run(&take_entry(), &e).expect("entry runs");
        assert!(r.output.is_empty(), "entry half exports nothing");
        assert_eq!(map.lookup(&42), Some(addr), "address remembered per pid");

        // Exit: the DDS layer has written the value; the program
        // dereferences the stored address.
        let mut user_at_exit = HashMap::new();
        user_at_exit.insert(addr, 555_u64);
        let mut exit_ctx = Vec::new();
        exit_ctx.extend_from_slice(&0xcb_u64.to_le_bytes()); // cb id
        exit_ctx.extend_from_slice(&0xab_u64.to_le_bytes()); // topic hash
        exit_ctx.extend_from_slice(&addr.to_le_bytes());
        let e = env(&exit_ctx, &user_at_exit, &map);
        let r = run(&take_exit(), &e).expect("exit runs");
        assert_eq!(r.ret, 1);
        assert_eq!(r.output.len(), 1);
        let rec = &r.output[0];
        assert_eq!(u64::from_le_bytes(rec[16..24].try_into().expect("8")), 0xcb);
        assert_eq!(u64::from_le_bytes(rec[24..32].try_into().expect("8")), 0xab);
        assert_eq!(u64::from_le_bytes(rec[32..40].try_into().expect("8")), 555);
        assert_eq!(map.lookup(&42), None, "entry gone after exit");
    }

    #[test]
    fn take_exit_drops_on_address_mismatch() {
        let map: BpfMap<u64, u64> = BpfMap::new("inflight", 8);
        map.update(42, 0x1000).expect("room");
        let mut exit_ctx = Vec::new();
        exit_ctx.extend_from_slice(&1_u64.to_le_bytes());
        exit_ctx.extend_from_slice(&2_u64.to_le_bytes());
        exit_ctx.extend_from_slice(&0x2000_u64.to_le_bytes()); // different frame
        let user = HashMap::new();
        let e = env(&exit_ctx, &user, &map);
        let r = run(&take_exit(), &e).expect("runs");
        assert_eq!(r.ret, 0);
        assert!(r.output.is_empty());
    }

    #[test]
    fn vm_agrees_with_native_rt_tracer_on_take_semantics() {
        // The native Ros2RtTracer drops a take whose exit address differs
        // from the entry's, and exports exactly one event otherwise — the
        // bytecode pair must implement the same decision function.
        use crate::call::{FunctionArgs, FunctionCall, SrcTsRef};
        use crate::tracer_rt::Ros2RtTracer;
        use rtms_trace::{CallbackId, Nanos, Pid, SourceTimestamp, Topic};

        for (entry_addr, exit_addr) in [(0x100u64, 0x100u64), (0x100, 0x200)] {
            // Native path.
            let mut native = Ros2RtTracer::new().expect("programs verify");
            native.start();
            native.on_function(&FunctionCall::entry(
                Nanos::ZERO,
                Pid::new(42),
                FunctionArgs::RmwTakeInt {
                    subscription: CallbackId::new(0xcb),
                    topic: &Topic::plain("/t"),
                    src_ts: SrcTsRef::pending(entry_addr),
                },
            ));
            native.on_function(&FunctionCall::exit(
                Nanos::ZERO,
                Pid::new(42),
                FunctionArgs::RmwTakeInt {
                    subscription: CallbackId::new(0xcb),
                    topic: &Topic::plain("/t"),
                    src_ts: SrcTsRef::resolved(exit_addr, SourceTimestamp::new(9)),
                },
            ));
            let native_events = native.drain_segment().len();

            // Bytecode path.
            let map: BpfMap<u64, u64> = BpfMap::new("inflight", 8);
            let user = HashMap::new();
            let entry_ctx = entry_addr.to_le_bytes().to_vec();
            run(&take_entry(), &env(&entry_ctx, &user, &map)).expect("entry");
            let mut user_at_exit = HashMap::new();
            user_at_exit.insert(exit_addr, 9u64);
            let mut exit_ctx = Vec::new();
            exit_ctx.extend_from_slice(&0xcb_u64.to_le_bytes());
            exit_ctx.extend_from_slice(&0_u64.to_le_bytes());
            exit_ctx.extend_from_slice(&exit_addr.to_le_bytes());
            let r = run(&take_exit(), &env(&exit_ctx, &user_at_exit, &map)).expect("exit");

            assert_eq!(
                native_events,
                r.output.len(),
                "native and bytecode paths must agree for {entry_addr:#x}/{exit_addr:#x}"
            );
        }
    }
}
