/**
 * @file
 * Summaries of repeated measurements and their JSON spelling.
 */

#ifndef PF_PERFBENCH_SUMMARY_HH
#define PF_PERFBENCH_SUMMARY_HH

#include <algorithm>
#include <charconv>
#include <cmath>
#include <string>
#include <vector>

namespace pfbench {

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Median (mean of the middle two for an even count); 0 if empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Shortest decimal that reads back as @p v: every measured digit,
 *  nothing invented. JSON has no NaN or infinity; they become null. */
inline std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    auto r = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
}

inline std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (c == '\n')
            out += "\\n";
        else if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

} // namespace pfbench

#endif // PF_PERFBENCH_SUMMARY_HH
