/**
 * @file
 * PageMap: a sparse map from page number to a fixed-size page of
 * values, with a one-entry cache of the last page asked for. ArchState
 * keeps memory in one; the functional simulator keeps the last
 * store to each 8-byte chunk in another.
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
 * so the cache holds a plain pointer to the last page asked for (or
 * null, if find() found none): an access that stays on one page
 * costs one compare instead of a hash lookup.
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
          _lastPn(std::exchange(other._lastPn, noPage)),
          _last(std::exchange(other._last, nullptr))
    {}

    PageMap &
    operator=(PageMap &&other) noexcept
    {
        _pages = std::move(other._pages);
        _fill = other._fill;
        _lastPn = std::exchange(other._lastPn, noPage);
        _last = std::exchange(other._last, nullptr);
        return *this;
    }

    /** Page @p pn, or nullptr if it was never made. */
    Page *
    find(Addr pn)
    {
        if (pn != _lastPn) {
            const auto it = _pages.find(pn);
            remember(pn, it == _pages.end() ? nullptr : it->second.get());
        }
        return _last;
    }

    /** Page @p pn, made (filled) on first use. */
    Page &
    get(Addr pn)
    {
        if (pn != _lastPn || !_last) {
            std::unique_ptr<Page> &page = _pages[pn];
            if (!page) {
                page = std::make_unique<Page>();
                page->fill(_fill);
            }
            remember(pn, page.get());
        }
        return *_last;
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

    void
    remember(Addr pn, Page *page)
    {
        _lastPn = pn;
        _last = page;
    }

    std::unordered_map<Addr, std::unique_ptr<Page>> _pages;
    T _fill;
    Addr _lastPn = noPage;
    Page *_last = nullptr;
};

} // namespace polyflow

#endif // POLYFLOW_ISA_PAGE_MAP_HH
