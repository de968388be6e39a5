/**
 * @file
 * Small helpers for printing aligned result tables and CSV files from
 * the benchmark harnesses.
 */

#ifndef POLYFLOW_STATS_TABLE_HH
#define POLYFLOW_STATS_TABLE_HH

#include <iosfwd>
#include <string>
#include <vector>

namespace polyflow {

/** A simple column-aligned text table with an optional CSV dump. */
class Table
{
  public:
    explicit Table(std::vector<std::string> header);

    /** Begin a new row; follow with cell() calls. */
    void startRow();
    void cell(const std::string &s);
    void cell(double v, int precision = 2);
    void cell(long long v);
    void cell(unsigned long long v)
    {
        cell(static_cast<long long>(v));
    }

    /** Print with aligned columns. */
    void print(std::ostream &os) const;
    /** Write comma-separated values (header + rows). */
    void writeCsv(const std::string &path) const;

  private:
    std::vector<std::string> _header;
    std::vector<std::vector<std::string>> _rows;
};

/** Arithmetic mean of @p v (0 for empty). */
double mean(const std::vector<double> &v);

} // namespace polyflow

#endif // POLYFLOW_STATS_TABLE_HH
