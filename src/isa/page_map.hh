/**
 * @file
 * PageMap: a sparse map from page number to a fixed-size page of
 * values, with a two-entry cache of the last two pages asked for.
 * ArchState keeps memory in one; the functional simulator keeps the
 * last store to each 8-byte chunk in another.
 */

#ifndef POLYFLOW_ISA_PAGE_MAP_HH
#define POLYFLOW_ISA_PAGE_MAP_HH

#include <array>
#include <cstddef>
#include <memory>
#include <unordered_map>
#include <utility>

#include "ir/types.hh"

namespace polyflow {

/**
 * Pages of @p N values of @p T, keyed by page number and made on
 * first get(). A page never moves or goes away while the map lives,
 * so the cache holds plain pointers to the last two pages asked for
 * (or null, if find() found none), the most recent first: an access
 * that stays on two pages, such as loads and stores alternating
 * between the stack and one data page, costs a compare or two
 * instead of a hash lookup.
 */
template <class T, std::size_t N>
class PageMap
{
  public:
    using Page = std::array<T, N>;

    /** A map whose pages start filled with @p fill. */
    explicit PageMap(T fill) : _fill(fill) {}

    // A moved-from map forgets its cache, which names a page it no
    // longer owns.
    PageMap(PageMap &&other) noexcept
        : _pages(std::move(other._pages)), _fill(other._fill),
          _cache(std::exchange(other._cache, {}))
    {}

    PageMap &
    operator=(PageMap &&other) noexcept
    {
        _pages = std::move(other._pages);
        _fill = other._fill;
        _cache = std::exchange(other._cache, {});
        return *this;
    }

    /** Page @p pn, or nullptr if it was never made. */
    Page *
    find(Addr pn)
    {
        if (!cached(pn)) {
            const auto it = _pages.find(pn);
            remember(pn, it == _pages.end() ? nullptr : it->second.get());
        }
        return _cache[0].page;
    }

    /** Page @p pn, made (filled) on first use. */
    Page &
    get(Addr pn)
    {
        if (!cached(pn) || !_cache[0].page) {
            std::unique_ptr<Page> &page = _pages[pn];
            if (!page) {
                page = std::make_unique<Page>();
                page->fill(_fill);
            }
            remember(pn, page.get());
        }
        return *_cache[0].page;
    }

    /** Page @p pn, or nullptr if it was never made; leaves the cache
     *  alone, so a const map stays safe to read from several
     *  threads. */
    const Page *
    peek(Addr pn) const
    {
        const auto it = _pages.find(pn);
        return it == _pages.end() ? nullptr : it->second.get();
    }

    /** Every page made, by page number, in no fixed order. */
    const std::unordered_map<Addr, std::unique_ptr<Page>> &
    pages() const
    {
        return _pages;
    }

  private:
    /** No page has this number: a page number is an address
     *  divided by a page size above one. */
    static constexpr Addr noPage = ~Addr(0);

    struct Entry
    {
        Addr pn = noPage;
        Page *page = nullptr;
    };

    /** True if page @p pn is cached; it is then entry 0. */
    bool
    cached(Addr pn)
    {
        if (pn == _cache[0].pn)
            return true;
        if (pn != _cache[1].pn)
            return false;
        std::swap(_cache[0], _cache[1]);
        return true;
    }

    /** Cache @p page as page @p pn in entry 0, the older entry
     *  making way unless it is @p pn's. */
    void
    remember(Addr pn, Page *page)
    {
        if (pn != _cache[0].pn) {
            _cache[1] = _cache[0];
            _cache[0].pn = pn;
        }
        _cache[0].page = page;
    }

    std::unordered_map<Addr, std::unique_ptr<Page>> _pages;
    T _fill;
    std::array<Entry, 2> _cache{};
};

} // namespace polyflow

#endif // POLYFLOW_ISA_PAGE_MAP_HH
