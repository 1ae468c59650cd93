/**
 * @file
 * Workload factory and scale profiles.
 *
 * The paper evaluates eight applications (Table 1). This registry
 * builds any of them by name at one of three scales:
 *
 *  - ci:     seconds-fast inputs for unit/integration tests;
 *  - small:  benchmark defaults, preserving footprint >> TLB coverage
 *            at the `scaled` TLB geometry;
 *  - medium: closer to paper ratios; minutes per run;
 *  - paper:  Table 1-sized inputs (offline only).
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "workloads/workload.hpp"

namespace pccsim::workloads {

enum class Scale : u8
{
    Ci = 0,
    Small,
    Medium,
    Paper,
};

/** Per-scale workload sizing. */
struct ScaleParams
{
    unsigned graph_scale;   //!< log2 nodes of graph inputs
    unsigned avg_degree;    //!< average directed degree
    u64 suite_footprint;    //!< bytes for the PARSEC/SPEC models
    u64 suite_ops;          //!< main-phase operations for those models
    u32 pr_iterations;
};

ScaleParams scaleParams(Scale scale);
Scale scaleFromString(const std::string &name);
std::string to_string(Scale scale);

/** The eight application names of Table 1. */
const std::vector<std::string> &allWorkloadNames();

/** The three graph kernels only. */
const std::vector<std::string> &graphWorkloadNames();

struct WorkloadSpec
{
    std::string name = "bfs";              //!< one of allWorkloadNames()
    Scale scale = Scale::Small;
    graph::NetworkKind network = graph::NetworkKind::Kronecker;
    bool dbg_sorted = false;               //!< DBG-reordered input
    u64 seed = 42;
};

/**
 * Build a workload. Graph inputs are cached per (spec) within a
 * process so utility-curve sweeps do not regenerate the graph.
 */
WorkloadPtr makeWorkload(const WorkloadSpec &spec);

/**
 * The CSR input of a graph workload (bfs, pr; sssp's is weighted), from
 * a process-wide cache: concurrent callers for one input share one
 * build and one graph, and callers for other inputs do not wait for it.
 */
std::shared_ptr<const graph::CsrGraph> graphInput(const WorkloadSpec &spec);

/** True if the named workload is one of the graph kernels. */
bool isGraphWorkload(const std::string &name);

} // namespace pccsim::workloads
