/**
 * @file
 * Minimal command-line option parser for the benchmark harnesses and
 * example programs (--key=value and --flag forms).
 */

#pragma once

#include <map>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace pccsim {

/**
 * Parses "--key=value", "--key value", and bare "--flag" arguments.
 * Unknown positional arguments are collected in order.
 */
class Options
{
  public:
    Options(int argc, char **argv);

    /** True if --name was passed at all (with or without a value). */
    bool has(const std::string &name) const;

    /** String value of --name, or fallback when absent. */
    std::string get(const std::string &name,
                    const std::string &fallback = "") const;

    /**
     * Integer value of --name, or fallback when absent or empty. A value
     * that is not wholly an integer (decimal, or 0x/0 prefixed) is a
     * fatal error naming the flag.
     */
    i64 getInt(const std::string &name, i64 fallback) const;

    /**
     * Floating-point value of --name, or fallback when absent or empty.
     * A value that is not wholly a number is a fatal error naming the
     * flag.
     */
    double getDouble(const std::string &name, double fallback) const;

    /** Boolean: present with no value or value in {1,true,yes,on}. */
    bool getBool(const std::string &name, bool fallback = false) const;

    const std::vector<std::string> &positional() const { return positional_; }

  private:
    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
};

/**
 * Parse all of `text` as the value of --flag the way getInt() does, or
 * exit through fatal() naming the flag: for list-valued flags whose
 * elements are numbers.
 */
i64 parseIntFlag(const std::string &flag, const std::string &text);

/** parseIntFlag() for a floating-point value, as getDouble() parses it. */
double parseDoubleFlag(const std::string &flag, const std::string &text);

} // namespace pccsim
