/**
 * @file
 * Modules: whole programs (functions + data segment) and the linker
 * that produces a flat executable image.
 */

#ifndef POLYFLOW_IR_MODULE_HH
#define POLYFLOW_IR_MODULE_HH

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/function.hh"
#include "ir/types.hh"

namespace polyflow {

/** An instruction in a linked image, with all targets resolved. */
struct LinkedInstr
{
    Instruction instr;
    Addr addr = invalidAddr;
    /** Resolved target of a branch / jump / call (invalidAddr if none
     *  or indirect). */
    Addr targetAddr = invalidAddr;
    FuncId func = invalidFunc;
    BlockId block = invalidBlock;
    /** True for the first instruction of a basic block. */
    bool blockStart = false;
};

/** An initialized byte range in the data segment. */
struct DataInit
{
    Addr addr;
    std::vector<std::uint8_t> bytes;
};

/** A program of maxImageSize instructions or more: no trace record
 *  could name its instructions. */
class ProgramTooLarge : public std::length_error
{
  public:
    explicit ProgramTooLarge(std::size_t instrs);
};

/** @throws ProgramTooLarge unless an image of @p instrs instructions
 *  fits below maxImageSize. */
void checkImageSize(std::size_t instrs);

/**
 * A fully linked program: a flat instruction image plus initialized
 * data. This is what the functional and timing simulators consume.
 */
class LinkedProgram
{
  public:
    const std::vector<LinkedInstr> &image() const { return _image; }
    const LinkedInstr &at(ImageIdx i) const { return _image.at(i); }
    size_t size() const { return _image.size(); }

    Addr entryAddr() const { return _entryAddr; }

    /** Image index of the instruction at @p addr, or fail. */
    ImageIdx idxOf(Addr addr) const;
    /**
     * Image index of the instruction at @p addr, or maxImageSize
     * when there is none: outside [codeBegin, codeEnd), off the
     * instruction grid, or on a padding word between functions. One
     * load from a dense table of the code's instruction slots.
     */
    ImageIdx
    findIdx(Addr addr) const
    {
        // Below codeBegin the offset wraps past every slot.
        const Addr off = addr - _codeBegin;
        const Addr slot = off / instrBytes;
        return off % instrBytes == 0 && slot < _slotToIdx.size()
            ? _slotToIdx[slot]
            : maxImageSize;
    }

    const std::vector<DataInit> &dataInits() const { return _dataInits; }

    /** Lowest / one-past-highest code addresses. */
    Addr codeBegin() const { return _codeBegin; }
    Addr codeEnd() const { return _codeEnd; }

    /**
     * Content hash (store::wordHash) of the instruction image
     * (operations, registers, immediates, resolved targets, layout),
     * entry point and initialized data, computed once by
     * Module::link(). Two programs with equal hashes execute
     * identically under one build of the functional simulator; the
     * artifact store keys on it.
     */
    std::uint64_t contentHash() const { return _contentHash; }

    friend class Module;

  private:
    std::vector<LinkedInstr> _image;
    /** Image index of each instrBytes slot of [codeBegin, codeEnd);
     *  maxImageSize on padding. */
    std::vector<ImageIdx> _slotToIdx;
    std::vector<DataInit> _dataInits;
    Addr _entryAddr = invalidAddr;
    Addr _codeBegin = 0;
    Addr _codeEnd = 0;
    std::uint64_t _contentHash = 0;
};

/**
 * A module is a whole program under construction: functions, a data
 * segment, and link-time jump tables. Call link() once construction
 * is complete to obtain the executable image.
 */
class Module
{
  public:
    explicit Module(std::string name) : _name(std::move(name)) {}

    const std::string &name() const { return _name; }

    /** @name Code @{ */
    Function &createFunction(const std::string &name);
    Function &function(FuncId id) { return *_funcs.at(id); }
    const Function &function(FuncId id) const { return *_funcs.at(id); }
    FuncId findFunction(const std::string &name) const;
    size_t numFunctions() const { return _funcs.size(); }
    /** Entry function (default: function 0). */
    void entryFunction(FuncId f) { _entryFunc = f; }
    /** @} */

    /** @name Data segment @{ */
    /** Reserve @p size bytes (8-aligned); returns the address. */
    Addr allocData(const std::string &name, size_t size);
    /** Address of a named data object. */
    Addr dataAddr(const std::string &name) const;
    /** Initialize bytes starting at @p addr. */
    void setData(Addr addr, std::vector<std::uint8_t> bytes);
    /** Initialize one 64-bit little-endian word at @p addr. */
    void setData64(Addr addr, std::uint64_t value);
    /**
     * Reserve a jump table of code addresses; each entry is resolved
     * to the flat address of (func, block) at link time.
     */
    Addr allocJumpTable(const std::string &name,
                        std::vector<std::pair<FuncId, BlockId>> entries);
    /** @} */

    Addr codeBase() const { return _codeBase; }

    /**
     * Lay out code, resolve symbolic targets and jump tables, and
     * produce the executable image. Validates every function.
     * @throws ProgramTooLarge if the image would not fit below
     *         maxImageSize
     * @throws std::runtime_error if a function's padding is not a
     *         multiple of instrBytes
     */
    LinkedProgram link();

  private:
    struct JumpTable
    {
        Addr addr;
        std::vector<std::pair<FuncId, BlockId>> entries;
    };

    std::string _name;
    std::vector<std::unique_ptr<Function>> _funcs;
    FuncId _entryFunc = 0;
    Addr _codeBase = 0x1000;
    Addr _dataBase = 0x10000000;
    Addr _dataTop = 0x10000000;
    std::unordered_map<std::string, Addr> _dataNames;
    std::vector<DataInit> _dataInits;
    std::vector<JumpTable> _jumpTables;
};

} // namespace polyflow

#endif // POLYFLOW_IR_MODULE_HH
