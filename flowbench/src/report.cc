#include "report.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "util/json.hh"

namespace flowbench
{

void
Digest::add(std::string key, std::vector<double> values)
{
    lines.emplace_back(std::move(key), std::move(values));
}

Digest
Digest::withSuffix(const std::string &suffix) const
{
    Digest out;
    for (const auto &[key, values] : lines)
        if (key.size() >= suffix.size() &&
            key.compare(key.size() - suffix.size(), suffix.size(),
                        suffix) == 0)
            out.add(key, values);
    return out;
}

std::string
Digest::str() const
{
    std::string out;
    char buf[40];
    for (const auto &[key, values] : lines) {
        out += key;
        for (double v : values) {
            std::snprintf(buf, sizeof(buf), " %.17g", v);
            out += buf;
        }
        out += '\n';
    }
    return out;
}

bool
Digest::parse(const std::string &text, Digest &out)
{
    out.lines.clear();
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key;
        fields >> key;
        std::vector<double> values;
        std::string token;
        while (fields >> token) {
            char *end = nullptr;
            const double v = std::strtod(token.c_str(), &end);
            if (end == token.c_str() || *end != '\0')
                return false;
            values.push_back(v);
        }
        out.add(key, std::move(values));
    }
    return true;
}

std::vector<std::string>
compareDigests(const Digest &expected, const Digest &actual)
{
    std::vector<std::string> diffs;
    char buf[256];
    auto find = [](const Digest &d, const std::string &key)
        -> const std::vector<double> * {
        for (const auto &[k, values] : d.lines)
            if (k == key)
                return &values;
        return nullptr;
    };
    for (const auto &[key, want] : expected.lines) {
        const std::vector<double> *got = find(actual, key);
        if (!got) {
            diffs.push_back(key + ": missing from the output");
            continue;
        }
        if (got->size() != want.size()) {
            std::snprintf(buf, sizeof(buf), "%s: %zu values, expected %zu",
                          key.c_str(), got->size(), want.size());
            diffs.push_back(buf);
            continue;
        }
        for (std::size_t i = 0; i < want.size(); ++i)
            if ((*got)[i] != want[i]) {
                std::snprintf(buf, sizeof(buf),
                              "%s[%zu]: %.17g, expected %.17g",
                              key.c_str(), i, (*got)[i], want[i]);
                diffs.push_back(buf);
            }
    }
    for (const auto &[key, values] : actual.lines)
        if (!find(expected, key))
            diffs.push_back(key + ": not in the reference");
    return diffs;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream text;
    text << in.rdbuf();
    out = text.str();
    return true;
}

bool
readMaxErrorPercent(const std::string &path, std::array<double, 4> &out,
                    std::string &error)
{
    std::string text;
    if (!readFile(path, text)) {
        error = "cannot read " + path;
        return false;
    }
    auto json = msim::util::Json::parse(text);
    if (!json.ok()) {
        error = path + ": " + json.error().message;
        return false;
    }
    const char *keys[4] = {"cycles", "dram", "l2", "tile"};
    for (std::size_t m = 0; m < 4; ++m) {
        const msim::util::Json *v =
            json->findPath(std::string("max_error_percent.") + keys[m]);
        if (!v || !v->isNumber()) {
            error = path + ": no max_error_percent." + keys[m];
            return false;
        }
        out[m] = v->asNumber();
    }
    return true;
}

namespace
{

bool
isAlnum(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
}

} // namespace

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64 || !isAlnum(name[0]))
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return isAlnum(c) || c == '_' || c == '.' || c == '-';
    });
}

bool
validUnit(const std::string &unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    return std::all_of(unit.begin(), unit.end(), [](char c) {
        return isAlnum(c) || c == '_' || c == '/' || c == '%' ||
               c == '.' || c == '-';
    });
}

std::string
resultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<MetricValue> &metrics)
{
    std::string out;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                  "%llu, \"metrics\": {",
                  correct ? "true" : "false",
                  static_cast<unsigned long long>(attempted),
                  static_cast<unsigned long long>(failed));
    out += buf;
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", metrics[i].name.c_str(),
                      metrics[i].value, metrics[i].unit.c_str());
        out += buf;
    }
    out += "}}";
    return out;
}

double
stealSeconds()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    unsigned long long fields[8] = {};
    if (!(in >> cpu) || cpu != "cpu")
        return 0.0;
    for (unsigned long long &f : fields)
        if (!(in >> f))
            return 0.0;
    const long hz = sysconf(_SC_CLK_TCK);
    return hz > 0 ? static_cast<double>(fields[7]) /
                        static_cast<double>(hz)
                  : 0.0;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

} // namespace flowbench
