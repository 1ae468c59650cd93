#include "telemetry/registry.hpp"

namespace pccsim::telemetry {

void
Registry::probe(const std::string &name, std::function<u64()> read)
{
    probes_[name] = std::move(read);
}

u64
Registry::read(const std::string &name) const
{
    const auto it = probes_.find(name);
    return it == probes_.end() ? 0 : it->second();
}

bool
Registry::has(const std::string &name) const
{
    return probes_.count(name) != 0;
}

std::vector<std::pair<std::string, u64>>
Registry::readAll() const
{
    std::vector<std::pair<std::string, u64>> out;
    out.reserve(size());
    for (const auto &[name, read] : probes_)
        out.emplace_back(name, read());
    return out;
}

} // namespace pccsim::telemetry
