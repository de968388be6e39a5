#include "isa/functional_sim.hh"

#include <stdexcept>
#include <unordered_map>

#include "isa/exec.hh"

namespace polyflow {

namespace {

/** Initial stack pointer. */
constexpr Addr stackTop = 0x7fff0000;

} // namespace

FunctionalResult
runFunctional(const LinkedProgram &prog, const FunctionalOptions &options)
{
    FunctionalResult res;
    res.finalState = std::make_unique<ArchState>();
    ArchState &st = *res.finalState;

    for (const DataInit &di : prog.dataInits()) {
        for (size_t i = 0; i < di.bytes.size(); ++i)
            st.writeByte(di.addr + i, di.bytes[i]);
    }
    st.writeReg(reg::sp, std::int64_t(stackTop));
    if (!prog.dataInits().empty())
        st.writeReg(reg::gp, std::int64_t(prog.dataInits()[0].addr));

    // Last dynamic writer of each architectural register.
    TraceIdx lastWriter[numArchRegs];
    for (auto &w : lastWriter)
        w = invalidTrace;
    // Last dynamic store touching each aligned 8-byte chunk.
    std::unordered_map<Addr, TraceIdx> lastStore;

    if (options.recordTrace) {
        checkImageSize(prog.size());
        res.trace.prog = &prog;
        res.trace.instrs.reserve(
            std::min<std::uint64_t>(options.maxInstrs, 1u << 22));
    }

    ImageIdx img = prog.idxOf(prog.entryAddr());
    while (res.instrCount < options.maxInstrs) {
        const LinkedInstr &li = prog.at(img);
        const Instruction &in = li.instr;

        ExecOut out = step(li, st);
        ++res.instrCount;

        if (options.recordTrace) {
            TraceIdx prod[2] = {invalidTrace, invalidTrace};
            RegId srcs[2];
            int nsrc = in.srcRegs(srcs);
            for (int s = 0; s < nsrc; ++s)
                prod[s] = lastWriter[srcs[s]];

            TraceIdx self = static_cast<TraceIdx>(res.trace.size());
            TraceIdx memProd = invalidTrace;
            if (in.isMem()) {
                Addr lo = out.effAddr & ~Addr(7);
                Addr hi = (out.effAddr + in.memBytes() - 1) & ~Addr(7);
                if (in.isLoad()) {
                    for (Addr c = lo; c <= hi; c += 8) {
                        auto it = lastStore.find(c);
                        if (it != lastStore.end() &&
                            (memProd == invalidTrace ||
                             it->second > memProd)) {
                            memProd = it->second;
                        }
                    }
                } else {
                    for (Addr c = lo; c <= hi; c += 8)
                        lastStore[c] = self;
                }
            }
            int dst = in.destReg();
            if (dst >= 0)
                lastWriter[dst] = self;

            res.trace.append(
                img, out.taken, prod[0], prod[1],
                in.isMem() ? out.effAddr : out.indirectTarget, memProd);
        }

        if (out.halted) {
            res.halted = true;
            break;
        }
        img = prog.findIdx(out.nextPc);
        if (img == maxImageSize) {
            throw std::runtime_error(
                "functional sim: fetch from non-code address " +
                std::to_string(out.nextPc));
        }
    }
    res.trace.shrinkToFit();
    return res;
}

} // namespace polyflow
