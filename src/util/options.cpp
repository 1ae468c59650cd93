#include "util/options.hpp"

#include <cerrno>
#include <cstdlib>

#include "util/log.hpp"

namespace pccsim {

Options::Options(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        arg = arg.substr(2);
        auto eq = arg.find('=');
        if (eq != std::string::npos) {
            values_[arg.substr(0, eq)] = arg.substr(eq + 1);
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0)
                   != 0) {
            values_[arg] = argv[++i];
        } else {
            values_[arg] = "";
        }
    }
}

bool
Options::has(const std::string &name) const
{
    return values_.count(name) != 0;
}

std::string
Options::get(const std::string &name, const std::string &fallback) const
{
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
}

i64
Options::getInt(const std::string &name, i64 fallback) const
{
    auto it = values_.find(name);
    if (it == values_.end() || it->second.empty())
        return fallback;
    return parseIntFlag(name, it->second);
}

double
Options::getDouble(const std::string &name, double fallback) const
{
    auto it = values_.find(name);
    if (it == values_.end() || it->second.empty())
        return fallback;
    return parseDoubleFlag(name, it->second);
}

bool
Options::getBool(const std::string &name, bool fallback) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    const std::string &v = it->second;
    return v.empty() || v == "1" || v == "true" || v == "yes" || v == "on";
}

i64
parseIntFlag(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    const i64 v = std::strtoll(text.c_str(), &end, 0);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE)
        fatal("--", flag, "=", text, ": expected an integer");
    return v;
}

double
parseDoubleFlag(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE)
        fatal("--", flag, "=", text, ": expected a number");
    return v;
}

} // namespace pccsim
