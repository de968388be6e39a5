/**
 * @file
 * Functions: named collections of basic blocks with a single entry.
 */

#ifndef POLYFLOW_IR_FUNCTION_HH
#define POLYFLOW_IR_FUNCTION_HH

#include <memory>
#include <string>
#include <vector>

#include "ir/basic_block.hh"
#include "ir/types.hh"

namespace polyflow {

/**
 * A function. Block 0 is always the entry block. Blocks are laid out
 * in id order at link time, so a block without a terminator falls
 * through to block id+1.
 */
class Function
{
  public:
    Function(FuncId id, std::string name)
        : _id(id), _name(std::move(name))
    {}

    FuncId id() const { return _id; }
    const std::string &name() const { return _name; }

    /** Create a new basic block and return its id. */
    BlockId createBlock(const std::string &name = "");

    BasicBlock &block(BlockId id) { return *_blocks.at(id); }
    const BasicBlock &block(BlockId id) const { return *_blocks.at(id); }

    size_t numBlocks() const { return _blocks.size(); }

    /** Total instruction count across all blocks. */
    size_t numInstrs() const;

    /**
     * Finalize fall-through edges: any block whose terminator is a
     * conditional branch (or that has no terminator) falls through to
     * the next block by id. Called by Module::link(); idempotent.
     */
    void resolveFallThroughs();

    /** Sanity-check structural invariants; throws on violation. */
    void validate() const;

    Addr startAddr() const { return _startAddr; }
    void startAddr(Addr a) { _startAddr = a; }

    /** Padding inserted after the function at link time (bytes, a
     *  multiple of instrBytes). */
    Addr padding() const { return _padding; }
    void padding(Addr p) { _padding = p; }

  private:
    FuncId _id;
    std::string _name;
    std::vector<std::unique_ptr<BasicBlock>> _blocks;
    Addr _startAddr = invalidAddr;
    Addr _padding = 0;
};

} // namespace polyflow

#endif // POLYFLOW_IR_FUNCTION_HH
