#include "ir/function.hh"

#include <stdexcept>

namespace polyflow {

BlockId
Function::createBlock(const std::string &name)
{
    BlockId id = static_cast<BlockId>(_blocks.size());
    std::string n = name.empty()
        ? _name + ".bb" + std::to_string(id) : name;
    _blocks.push_back(std::make_unique<BasicBlock>(id, n));
    return id;
}

size_t
Function::numInstrs() const
{
    size_t n = 0;
    for (const auto &b : _blocks)
        n += b->size();
    return n;
}

void
Function::resolveFallThroughs()
{
    for (auto &bp : _blocks) {
        BasicBlock &b = *bp;
        BlockId next = b.id() + 1;
        bool have_next = next < static_cast<BlockId>(_blocks.size());
        if (!b.hasTerminator()) {
            if (!have_next) {
                throw std::runtime_error(
                    "function " + _name + ": last block " + b.name() +
                    " has no terminator");
            }
            b.fallSucc(next);
        } else if (b.terminator().isCondBranch()) {
            if (!have_next) {
                throw std::runtime_error(
                    "function " + _name + ": block " + b.name() +
                    " ends in a branch but has no fall-through block");
            }
            b.fallSucc(next);
        }
    }
}

void
Function::validate() const
{
    if (_blocks.empty())
        throw std::runtime_error("function " + _name + " has no blocks");
    for (const auto &bp : _blocks) {
        const BasicBlock &b = *bp;
        if (b.empty()) {
            throw std::runtime_error(
                "function " + _name + ": empty block " + b.name());
        }
        for (size_t i = 0; i + 1 < b.size(); ++i) {
            if (b.instrs()[i].isTerminator()) {
                throw std::runtime_error(
                    "function " + _name + ": terminator mid-block in " +
                    b.name());
            }
        }
        const Instruction &term = b.terminator();
        if (term.isCondBranch() || term.isDirectJump()) {
            if (term.targetBlock == invalidBlock ||
                term.targetBlock >=
                    static_cast<BlockId>(_blocks.size())) {
                throw std::runtime_error(
                    "function " + _name + ": bad branch target in " +
                    b.name());
            }
        }
        if (term.isIndirectJump() && b.indirectSuccs().empty()) {
            throw std::runtime_error(
                "function " + _name + ": indirect jump in " + b.name() +
                " has no declared targets");
        }
        for (BlockId s : b.successors()) {
            if (s < 0 || s >= static_cast<BlockId>(_blocks.size())) {
                throw std::runtime_error(
                    "function " + _name + ": successor out of range in " +
                    b.name());
            }
        }
    }
}

} // namespace polyflow
