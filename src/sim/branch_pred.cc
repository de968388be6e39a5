#include "sim/branch_pred.hh"

namespace polyflow {

std::uint32_t
GsharePredictor::index(Addr pc, std::uint32_t history)
{
    return (std::uint32_t(pc >> 2) ^ (history & historyMask)) &
        indexMask;
}

bool
GsharePredictor::predict(Addr pc, std::uint32_t history) const
{
    return _counters[index(pc, history)] >= 2;
}

void
GsharePredictor::update(Addr pc, std::uint32_t history, bool taken)
{
    std::uint8_t &c = _counters[index(pc, history)];
    if (taken && c < 3)
        ++c;
    else if (!taken && c > 0)
        --c;
}

Addr
IndirectPredictor::predict(Addr pc) const
{
    auto it = _lastTarget.find(pc);
    return it == _lastTarget.end() ? invalidAddr : it->second;
}

void
IndirectPredictor::update(Addr pc, Addr target)
{
    _lastTarget[pc] = target;
}

void
ReturnAddressStack::push(Addr returnAddr)
{
    if (static_cast<int>(_stack.size()) >= _capacity)
        _stack.erase(_stack.begin());  // overflow drops the oldest
    _stack.push_back(returnAddr);
}

Addr
ReturnAddressStack::pop()
{
    if (_stack.empty())
        return invalidAddr;
    Addr a = _stack.back();
    _stack.pop_back();
    return a;
}

} // namespace polyflow
