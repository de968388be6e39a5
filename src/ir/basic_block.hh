/**
 * @file
 * Basic blocks: straight-line instruction sequences with explicit
 * control-flow successors.
 */

#ifndef POLYFLOW_IR_BASIC_BLOCK_HH
#define POLYFLOW_IR_BASIC_BLOCK_HH

#include <string>
#include <vector>

#include "ir/instruction.hh"
#include "ir/types.hh"

namespace polyflow {

/**
 * A basic block. Control enters only at the first instruction and
 * leaves only through the terminator (or by falling through to the
 * next block when no terminator is present).
 *
 * Successor conventions:
 *  - conditional branch: takenSucc = branch target,
 *    fallSucc = fall-through block;
 *  - direct jump: takenSucc only;
 *  - indirect jump: indirectSuccs lists the possible targets
 *    (required for static analysis of switch tables);
 *  - return / halt: no successors (edges to the virtual exit are
 *    added by the CFG view).
 */
class BasicBlock
{
  public:
    BasicBlock(BlockId id, std::string name)
        : _id(id), _name(std::move(name))
    {}

    BlockId id() const { return _id; }
    const std::string &name() const { return _name; }

    const std::vector<Instruction> &instrs() const { return _instrs; }
    std::vector<Instruction> &instrs() { return _instrs; }

    bool empty() const { return _instrs.empty(); }
    size_t size() const { return _instrs.size(); }

    /** The last instruction, which defines the block's successors. */
    const Instruction &terminator() const { return _instrs.back(); }

    bool hasTerminator() const
    {
        return !_instrs.empty() && _instrs.back().isTerminator();
    }

    /** Append an instruction. */
    void append(const Instruction &instr) { _instrs.push_back(instr); }

    BlockId takenSucc() const { return _takenSucc; }
    BlockId fallSucc() const { return _fallSucc; }
    const std::vector<BlockId> &indirectSuccs() const
    {
        return _indirectSuccs;
    }

    void takenSucc(BlockId b) { _takenSucc = b; }
    void fallSucc(BlockId b) { _fallSucc = b; }
    void addIndirectSucc(BlockId b) { _indirectSuccs.push_back(b); }

    /** All successor block ids, in a deterministic order. */
    std::vector<BlockId> successors() const;

    /** First-instruction address, assigned by Module::link(). */
    Addr startAddr() const { return _startAddr; }
    void startAddr(Addr a) { _startAddr = a; }

    /** Address of the terminator (invalidAddr if none). */
    Addr termAddr() const
    {
        if (!hasTerminator())
            return invalidAddr;
        return _startAddr + (_instrs.size() - 1) * instrBytes;
    }

  private:
    BlockId _id;
    std::string _name;
    std::vector<Instruction> _instrs;
    BlockId _takenSucc = invalidBlock;
    BlockId _fallSucc = invalidBlock;
    std::vector<BlockId> _indirectSuccs;
    Addr _startAddr = invalidAddr;
};

} // namespace polyflow

#endif // POLYFLOW_IR_BASIC_BLOCK_HH
