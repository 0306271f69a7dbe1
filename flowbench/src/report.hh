/**
 * @file
 * What the flow benchmark checks and prints: output digests compared
 * value for value, the error thresholds it reads, the host record, and
 * the one-line JSON result printed last on stdout.
 */

#ifndef FLOWBENCH_REPORT_HH
#define FLOWBENCH_REPORT_HH

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace flowbench
{

/**
 * Named vectors of output values ("pvz.frames 12 57 ..."), kept in
 * insertion order and serialized with %.17g so they round-trip bit
 * for bit.
 */
struct Digest
{
    std::vector<std::pair<std::string, std::vector<double>>> lines;

    void add(std::string key, std::vector<double> values);

    /** Lines whose key ends with @p suffix. */
    Digest withSuffix(const std::string &suffix) const;

    std::string str() const;

    /** Parse str() output; false on a malformed line. */
    static bool parse(const std::string &text, Digest &out);
};

/**
 * Every difference between @p expected and @p actual: keys missing on
 * either side, length changes and each value that differs. Empty means
 * identical.
 */
std::vector<std::string> compareDigests(const Digest &expected,
                                        const Digest &actual);

/** Read a file; false when it cannot be opened. */
bool readFile(const std::string &path, std::string &out);

/**
 * max_error_percent of a thresholds file, in gpusim::Metric order
 * (cycles, dram, l2, tile); false with @p error set on failure.
 */
bool readMaxErrorPercent(const std::string &path,
                         std::array<double, 4> &out, std::string &error);

/** Metric names: a letter or digit, then up to 63 of [A-Za-z0-9_.-]. */
bool validMetricName(const std::string &name);

/** Units: 1 to 16 of [A-Za-z0-9_/%.-]. */
bool validUnit(const std::string &unit);

struct MetricValue
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The final stdout line: {"correct","attempted","failed","metrics"}. */
std::string resultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<MetricValue> &metrics);

/** Total steal time of all CPUs so far, seconds (/proc/stat). */
double stealSeconds();

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

} // namespace flowbench

#endif // FLOWBENCH_REPORT_HH
