#include "sim/cache.hh"

#include <bit>
#include <stdexcept>

namespace polyflow {

Cache::Cache(const CacheConfig &config) : _cfg(config)
{
    if (_cfg.lineBytes <= 0 || _cfg.assoc <= 0 || _cfg.sizeBytes <= 0 ||
        std::popcount(unsigned(_cfg.lineBytes)) != 1) {
        throw std::runtime_error("bad cache config");
    }
    _lineShift = std::countr_zero(unsigned(_cfg.lineBytes));
    _numSets = _cfg.sizeBytes / (_cfg.lineBytes * _cfg.assoc);
    if (_numSets <= 0 ||
        (_numSets & (_numSets - 1)) != 0) {
        throw std::runtime_error("cache sets must be a power of two");
    }
    _ways.resize(size_t(_numSets) * _cfg.assoc);
}

bool
Cache::access(Addr addr)
{
    ++_clock;
    Addr line = addr >> _lineShift;
    int set = int(line & Addr(_numSets - 1));
    Way *base = &_ways[size_t(set) * _cfg.assoc];

    for (int w = 0; w < _cfg.assoc; ++w) {
        Way &way = base[w];
        if (way.tag == line) {
            way.lastUse = _clock;
            return true;
        }
    }
    // Miss: fill the first empty way if any, else the true-LRU way.
    Way *lru = base;
    for (int w = 1; w < _cfg.assoc; ++w) {
        if (base[w].lastUse < lru->lastUse)
            lru = &base[w];
    }
    lru->tag = line;
    lru->lastUse = _clock;
    ++_misses;
    return false;
}

MemHierarchy::MemHierarchy(const MachineConfig &config)
    : _l1i(config.l1i), _l1d(config.l1d), _l2(config.l2)
{}

int
MemHierarchy::access(Cache &l1, Addr addr)
{
    if (l1.access(addr))
        return 1;
    int lat = 1 + l1.config().missLatency;
    if (!_l2.access(addr))
        lat += _l2.config().missLatency;
    return lat;
}

int
MemHierarchy::accessInstr(Addr addr)
{
    return access(_l1i, addr);
}

int
MemHierarchy::accessData(Addr addr)
{
    return access(_l1d, addr);
}

} // namespace polyflow
