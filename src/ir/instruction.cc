#include "ir/instruction.hh"

#include <sstream>

namespace polyflow {

std::string
Instruction::toString() const
{
    std::ostringstream os;
    const OpInfo &info = opInfo(op);
    os << info.mnemonic;
    switch (info.cls) {
      case OpClass::CondBranch:
        os << " r" << int(rs1);
        if (info.reads == Reads::Rs1Rs2)
            os << ", r" << int(rs2);
        os << ", bb" << targetBlock;
        break;
      case OpClass::Jump:
        os << " bb" << targetBlock;
        break;
      case OpClass::Call:
        os << " fn" << targetFunc;
        break;
      case OpClass::IndirectJump:
      case OpClass::IndirectCall:
        os << " r" << int(rs1);
        break;
      case OpClass::Load:
        os << " r" << int(rd) << ", " << imm << "(r" << int(rs1) << ")";
        break;
      case OpClass::Store:
        os << " r" << int(rs2) << ", " << imm << "(r" << int(rs1) << ")";
        break;
      case OpClass::Alu:
        if (info.reads == Reads::None) {
            os << " r" << int(rd) << ", " << imm;
        } else if (destReg() >= 0) {
            os << " r" << int(rd) << ", r" << int(rs1);
            if (info.reads == Reads::Rs1)
                os << ", " << imm;
            else
                os << ", r" << int(rs2);
        }
        break;
      default:
        break;
    }
    return os.str();
}

} // namespace polyflow
