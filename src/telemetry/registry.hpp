/**
 * @file
 * Telemetry registry: named probes, read-on-demand callbacks over state
 * another module already maintains (TLB hit counts, OS stat counters,
 * per-core cycles, a telemetry object's own totals). Probes keep
 * instrumentation free when telemetry is disabled: the owning module
 * pays nothing until someone reads.
 *
 * The interval sampler (series.hpp) reads the registry once per policy
 * interval and turns cumulative sources into per-interval deltas.
 */

#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace pccsim::telemetry {

class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Register a probe; re-registering a name replaces its callback. */
    void probe(const std::string &name, std::function<u64()> read);

    /** Read one source; 0 for names never registered. */
    u64 read(const std::string &name) const;

    bool has(const std::string &name) const;

    /** Every source as (name, current value), sorted by name. */
    std::vector<std::pair<std::string, u64>> readAll() const;

    size_t size() const { return probes_.size(); }

  private:
    std::map<std::string, std::function<u64()>> probes_;
};

} // namespace pccsim::telemetry
