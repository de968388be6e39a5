#include "isa/functional_sim.hh"

#include <stdexcept>
#include <vector>

#include "isa/exec.hh"
#include "isa/page_map.hh"

namespace polyflow {

namespace {

/** Initial stack pointer. */
constexpr Addr stackTop = 0x7fff0000;

/** Bytes in one chunk of the memory-producer rule. */
constexpr Addr chunkBytes = 8;
/** Chunks in one page of the last-store table. */
constexpr Addr pageChunks = ArchState::pageBytes / chunkBytes;

/** The lastWriter slot an instruction that writes no register
 *  writes: one past the architectural registers. */
constexpr RegId noDest = numArchRegs;

/**
 * What recording reads of one static instruction, resolved from its
 * opTable row once per run, so that recording a step is a few loads
 * with no switch on the row.
 */
struct Links
{
    /** Source registers in Instruction::srcRegs() order; r0 for an
     *  absent one, since r0's last writer stays invalidTrace. */
    RegId src[2] = {reg::zero, reg::zero};
    /** Destination register, or noDest. */
    RegId dst = noDest;
    /** Bytes a load or store moves; 0 for every other op. */
    std::uint8_t memBytes = 0;
    bool load = false;
};

std::vector<Links>
linksOf(const LinkedProgram &prog)
{
    std::vector<Links> links(prog.size());
    for (std::size_t i = 0; i < prog.size(); ++i) {
        const Instruction &in = prog.image()[i].instr;
        Links &l = links[i];
        in.srcRegs(l.src);
        if (const int d = in.destReg(); d >= 0)
            l.dst = static_cast<RegId>(d);
        l.memBytes = static_cast<std::uint8_t>(in.memBytes());
        l.load = in.isLoad();
    }
    return links;
}

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

    // Last dynamic writer of each architectural register, and the
    // noDest sink.
    TraceIdx lastWriter[numArchRegs + 1];
    for (auto &w : lastWriter)
        w = invalidTrace;
    // Last dynamic store touching each aligned 8-byte chunk, by
    // chunk number, a page of chunks at a time.
    PageMap<TraceIdx, pageChunks> lastStore(invalidTrace);
    std::vector<Links> links;

    if (options.recordTrace) {
        checkImageSize(prog.size());
        res.trace.prog = &prog;
        links = linksOf(prog);
    }

    ImageIdx img = prog.idxOf(prog.entryAddr());
    while (res.instrCount < options.maxInstrs) {
        const LinkedInstr &li = prog.image()[img];

        ExecOut out = step(li, st);
        ++res.instrCount;

        if (options.recordTrace) {
            const Links &l = links[img];
            const TraceIdx self = static_cast<TraceIdx>(res.trace.size());
            const TraceIdx prod0 = lastWriter[l.src[0]];
            const TraceIdx prod1 = lastWriter[l.src[1]];
            TraceIdx memProd = invalidTrace;
            if (l.memBytes != 0) {
                const Addr lo = out.effAddr / chunkBytes;
                const Addr hi = (out.effAddr + l.memBytes - 1) / chunkBytes;
                for (Addr c = lo; c <= hi; ++c) {
                    if (!l.load) {
                        lastStore.get(c / pageChunks)[c % pageChunks] =
                            self;
                        continue;
                    }
                    const auto *page = lastStore.find(c / pageChunks);
                    const TraceIdx last =
                        page ? (*page)[c % pageChunks] : invalidTrace;
                    if (last != invalidTrace &&
                        (memProd == invalidTrace || last > memProd))
                        memProd = last;
                }
            }
            lastWriter[l.dst] = self;

            res.trace.append(
                img, out.taken, prod0, prod1,
                l.memBytes != 0 ? out.effAddr : out.indirectTarget,
                memProd);
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
