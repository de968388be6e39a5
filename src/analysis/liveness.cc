#include "analysis/liveness.hh"

namespace polyflow {

namespace {

constexpr RegMask allRegs = 0xffffffffu & ~1u;  // r0 excluded

RegMask
bit(RegId r)
{
    return r == reg::zero ? 0 : (RegMask(1) << r);
}

/** Argument registers a call is assumed to read. */
constexpr RegMask argRegs =
    (1u << reg::a0) | (1u << reg::a1) | (1u << reg::a2) |
    (1u << reg::a3) | (1u << reg::sp) | (1u << reg::gp);

} // namespace

RegMask
regUses(const Instruction &in)
{
    RegId srcs[2];
    int n = in.srcRegs(srcs);
    RegMask m = 0;
    for (int i = 0; i < n; ++i)
        m |= bit(srcs[i]);
    return m;
}

RegMask
regDefs(const Instruction &in)
{
    int d = in.destReg();
    return d < 0 ? 0 : bit(RegId(d));
}

Liveness::Liveness(const Function &fn,
                   const std::vector<RegMask> &calleeWrites)
{
    int n = static_cast<int>(fn.numBlocks());
    _use.assign(n, 0);
    _def.assign(n, 0);
    _liveIn.assign(n, 0);
    _liveOut.assign(n, 0);

    auto callClobbers = [&](const Instruction &in) -> RegMask {
        if (in.isDirectCall() &&
            in.targetFunc >= 0 &&
            size_t(in.targetFunc) < calleeWrites.size()) {
            return calleeWrites[in.targetFunc] | bit(reg::ra);
        }
        return allRegs;  // indirect or unknown callee
    };

    for (int b = 0; b < n; ++b) {
        RegMask use = 0, def = 0;
        for (const Instruction &in : fn.block(b).instrs()) {
            RegMask u = regUses(in);
            if (in.isCall())
                u |= argRegs;
            use |= u & ~def;
            def |= regDefs(in);
            if (in.isCall())
                def |= callClobbers(in);
        }
        _use[b] = use;
        _def[b] = def;
    }

    CfgView cfg(fn);
    bool changed = true;
    while (changed) {
        changed = false;
        for (int b = n - 1; b >= 0; --b) {
            RegMask out = 0;
            for (int s : cfg.succs(b)) {
                if (s < n)
                    out |= _liveIn[s];
            }
            // Returns keep the conventional result registers alive.
            if (fn.block(b).hasTerminator() &&
                fn.block(b).terminator().isReturn()) {
                out |= (1u << reg::a0) | (1u << reg::a1) |
                    (1u << reg::sp) | (1u << reg::gp);
                // Callee-saved registers survive the call.
                for (RegId r = reg::s0; r <= reg::s7; ++r)
                    out |= bit(r);
            }
            RegMask in = _use[b] | (out & ~_def[b]);
            if (out != _liveOut[b] || in != _liveIn[b]) {
                _liveOut[b] = out;
                _liveIn[b] = in;
                changed = true;
            }
        }
    }
}

std::vector<RegMask>
moduleWriteSummaries(const Module &mod)
{
    size_t nf = mod.numFunctions();
    std::vector<RegMask> writes(nf, 0);

    // Local defs first.
    for (size_t f = 0; f < nf; ++f) {
        const Function &fn = mod.function(FuncId(f));
        RegMask m = 0;
        bool indirectCall = false;
        for (size_t b = 0; b < fn.numBlocks(); ++b) {
            for (const Instruction &in :
                 fn.block(BlockId(b)).instrs()) {
                m |= regDefs(in);
                if (in.isIndirectCall())
                    indirectCall = true;
            }
        }
        writes[f] = indirectCall ? allRegs : m;
    }

    // Propagate callee writes to callers until fixpoint.
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t f = 0; f < nf; ++f) {
            const Function &fn = mod.function(FuncId(f));
            RegMask m = writes[f];
            for (size_t b = 0; b < fn.numBlocks(); ++b) {
                for (const Instruction &in :
                     fn.block(BlockId(b)).instrs()) {
                    if (in.isDirectCall() &&
                        in.targetFunc >= 0 &&
                        size_t(in.targetFunc) < nf) {
                        m |= writes[in.targetFunc];
                    }
                }
            }
            if (m != writes[f]) {
                writes[f] = m;
                changed = true;
            }
        }
    }
    return writes;
}

} // namespace polyflow
