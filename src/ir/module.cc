#include "ir/module.hh"

#include <initializer_list>
#include <stdexcept>

#include "store/bytes.hh"

namespace polyflow {

namespace {

/** store::wordHash of @p words, each as one little-endian word. */
std::uint64_t
hashWords(std::initializer_list<std::uint64_t> words)
{
    char le[8 * 10];
    size_t n = 0;
    for (std::uint64_t w : words) {
        store::storeLE(le + n, w);
        n += 8;
    }
    return store::wordHash({le, n});
}

/** LinkedProgram::contentHash() of a fully linked @p prog: the
 *  program's fields, one word each, and each data initializer's
 *  bytes, hashed with store::wordHash a record at a time (no buffer
 *  of the whole program) and chained through store::laneStep. */
std::uint64_t
contentHashOf(const LinkedProgram &prog)
{
    using store::laneStep;
    std::uint64_t h = hashWords({prog.size(), prog.entryAddr(),
                                 prog.codeBegin(), prog.codeEnd()});
    for (const LinkedInstr &li : prog.image()) {
        const Instruction &in = li.instr;
        h = laneStep(h, hashWords({static_cast<std::uint64_t>(in.op),
                                   in.rd, in.rs1, in.rs2,
                                   static_cast<std::uint64_t>(in.imm),
                                   li.addr, li.targetAddr,
                                   static_cast<std::uint64_t>(li.func),
                                   static_cast<std::uint64_t>(li.block),
                                   li.blockStart ? 1u : 0u}));
    }
    for (const DataInit &d : prog.dataInits()) {
        h = laneStep(h, hashWords({d.addr, d.bytes.size()}));
        h = laneStep(h, store::wordHash(
                            {reinterpret_cast<const char *>(d.bytes.data()),
                             d.bytes.size()}));
    }
    return h;
}

} // namespace

ImageIdx
LinkedProgram::idxOf(Addr addr) const
{
    const ImageIdx idx = findIdx(addr);
    if (idx == maxImageSize) {
        throw std::runtime_error(
            "no instruction at address " + std::to_string(addr));
    }
    return idx;
}

Function &
Module::createFunction(const std::string &name)
{
    FuncId id = static_cast<FuncId>(_funcs.size());
    _funcs.push_back(std::make_unique<Function>(id, name));
    return *_funcs.back();
}

FuncId
Module::findFunction(const std::string &name) const
{
    for (const auto &f : _funcs) {
        if (f->name() == name)
            return f->id();
    }
    return invalidFunc;
}

Addr
Module::allocData(const std::string &name, size_t size)
{
    Addr addr = (_dataTop + 7) & ~Addr(7);
    _dataTop = addr + size;
    if (!name.empty()) {
        if (_dataNames.count(name))
            throw std::runtime_error("duplicate data name " + name);
        _dataNames[name] = addr;
    }
    return addr;
}

Addr
Module::dataAddr(const std::string &name) const
{
    auto it = _dataNames.find(name);
    if (it == _dataNames.end())
        throw std::runtime_error("unknown data name " + name);
    return it->second;
}

void
Module::setData(Addr addr, std::vector<std::uint8_t> bytes)
{
    _dataInits.push_back({addr, std::move(bytes)});
}

void
Module::setData64(Addr addr, std::uint64_t value)
{
    std::vector<std::uint8_t> b(8);
    for (int i = 0; i < 8; ++i)
        b[i] = (value >> (8 * i)) & 0xff;
    setData(addr, std::move(b));
}

Addr
Module::allocJumpTable(const std::string &name,
                       std::vector<std::pair<FuncId, BlockId>> entries)
{
    Addr addr = allocData(name, entries.size() * 8);
    _jumpTables.push_back({addr, std::move(entries)});
    return addr;
}

ProgramTooLarge::ProgramTooLarge(std::size_t instrs)
    : std::length_error("program of " + std::to_string(instrs) +
                        " instructions: an image holds fewer than " +
                        std::to_string(maxImageSize))
{}

void
checkImageSize(std::size_t instrs)
{
    if (instrs >= maxImageSize)
        throw ProgramTooLarge(instrs);
}

LinkedProgram
Module::link()
{
    if (_funcs.empty())
        throw std::runtime_error("module has no functions");

    LinkedProgram prog;

    // Pass 1: assign addresses.
    Addr pc = _codeBase;
    std::size_t instrs = 0;
    for (auto &fp : _funcs) {
        Function &fn = *fp;
        fn.resolveFallThroughs();
        fn.validate();
        fn.startAddr(pc);
        for (size_t b = 0; b < fn.numBlocks(); ++b) {
            BasicBlock &bb = fn.block(static_cast<BlockId>(b));
            bb.startAddr(pc);
            pc += bb.size() * instrBytes;
            instrs += bb.size();
        }
        if (fn.padding() % instrBytes != 0) {
            throw std::runtime_error(
                "padding of " + fn.name() +
                " is not a whole number of instructions");
        }
        pc += fn.padding();
    }
    checkImageSize(instrs);
    prog._codeBegin = _codeBase;
    prog._codeEnd = pc;
    prog._slotToIdx.assign((pc - _codeBase) / instrBytes, maxImageSize);

    // Pass 2: emit linked instructions with resolved targets.
    for (auto &fp : _funcs) {
        Function &fn = *fp;
        for (size_t b = 0; b < fn.numBlocks(); ++b) {
            BasicBlock &bb = fn.block(static_cast<BlockId>(b));
            Addr iaddr = bb.startAddr();
            for (size_t i = 0; i < bb.size(); ++i) {
                const Instruction &ins = bb.instrs()[i];
                LinkedInstr li;
                li.instr = ins;
                li.addr = iaddr;
                li.func = fn.id();
                li.block = bb.id();
                li.blockStart = (i == 0);
                if (ins.isCondBranch() || ins.isDirectJump()) {
                    li.targetAddr =
                        fn.block(ins.targetBlock).startAddr();
                } else if (ins.isDirectCall()) {
                    if (ins.targetFunc == invalidFunc ||
                        ins.targetFunc >=
                            static_cast<FuncId>(_funcs.size())) {
                        throw std::runtime_error(
                            "bad call target in " + fn.name());
                    }
                    li.targetAddr = _funcs[ins.targetFunc]->startAddr();
                }
                prog._slotToIdx[(iaddr - _codeBase) / instrBytes] =
                    static_cast<ImageIdx>(prog._image.size());
                prog._image.push_back(li);
                iaddr += instrBytes;
            }
        }
    }

    // Pass 3: resolve jump tables into the data image.
    for (const JumpTable &jt : _jumpTables) {
        std::vector<std::uint8_t> bytes;
        bytes.reserve(jt.entries.size() * 8);
        for (auto [f, b] : jt.entries) {
            Addr a = _funcs.at(f)->block(b).startAddr();
            for (int i = 0; i < 8; ++i)
                bytes.push_back((a >> (8 * i)) & 0xff);
        }
        prog._dataInits.push_back({jt.addr, std::move(bytes)});
    }
    for (const DataInit &di : _dataInits)
        prog._dataInits.push_back(di);

    prog._entryAddr = _funcs.at(_entryFunc)->startAddr();
    prog._contentHash = contentHashOf(prog);
    return prog;
}

} // namespace polyflow
