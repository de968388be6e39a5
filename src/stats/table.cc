#include "stats/table.hh"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <stdexcept>

namespace polyflow {

Table::Table(std::vector<std::string> header)
    : _header(std::move(header))
{}

void
Table::startRow()
{
    _rows.emplace_back();
}

void
Table::cell(const std::string &s)
{
    if (_rows.empty())
        throw std::runtime_error("Table::cell before startRow");
    _rows.back().push_back(s);
}

void
Table::cell(double v, int precision)
{
    char buf[64];
    snprintf(buf, sizeof(buf), "%.*f", precision, v);
    cell(std::string(buf));
}

void
Table::cell(long long v)
{
    cell(std::to_string(v));
}

void
Table::print(std::ostream &os) const
{
    std::vector<size_t> width(_header.size());
    for (size_t c = 0; c < _header.size(); ++c)
        width[c] = _header[c].size();
    for (const auto &row : _rows) {
        for (size_t c = 0; c < row.size() && c < width.size(); ++c)
            width[c] = std::max(width[c], row[c].size());
    }

    auto line = [&](const std::vector<std::string> &cells) {
        for (size_t c = 0; c < width.size(); ++c) {
            std::string v = c < cells.size() ? cells[c] : "";
            os << (c == 0 ? "" : "  ") << std::setw((int)width[c])
               << (c == 0 ? std::left : std::right) << v;
            os << std::right;
        }
        os << "\n";
    };
    line(_header);
    for (const auto &row : _rows)
        line(row);
}

void
Table::writeCsv(const std::string &path) const
{
    std::ofstream f(path);
    if (!f)
        throw std::runtime_error("cannot write " + path);
    auto line = [&](const std::vector<std::string> &cells) {
        for (size_t c = 0; c < cells.size(); ++c)
            f << (c ? "," : "") << cells[c];
        f << "\n";
    };
    line(_header);
    for (const auto &row : _rows)
        line(row);
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0;
    for (double x : v)
        s += x;
    return s / double(v.size());
}

} // namespace polyflow
