# Benchmark harness targets. Included from the top-level CMakeLists
# (not add_subdirectory) so that build/bench/ contains only the
# binaries: `for b in build/bench/*; do $b; done` then runs exactly
# the benchmark suite with no CMake artifacts in the glob.

find_package(benchmark REQUIRED)

set(PCC_BENCH_DIR ${CMAKE_BINARY_DIR}/bench)

# Figure/table harnesses: plain executables that print paper-style rows.
function(pcc_fig name)
    add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
    target_link_libraries(${name} PRIVATE pccsim)
    set_target_properties(${name} PROPERTIES
        RUNTIME_OUTPUT_DIRECTORY ${PCC_BENCH_DIR})
endfunction()

pcc_fig(fig01_motivation)
pcc_fig(fig02_reuse)
pcc_fig(fig05_utility)
pcc_fig(fig06_pcc_size)
pcc_fig(fig07_fragmentation)
pcc_fig(fig08_multithread)
pcc_fig(fig09_multiprocess)
pcc_fig(fig10_multitenant)
pcc_fig(tab_workloads)
pcc_fig(tab_overheads)
pcc_fig(abl_replacement)
pcc_fig(abl_coldfilter)
pcc_fig(abl_pwc)
pcc_fig(abl_gb_pcc)
pcc_fig(abl_victim)
pcc_fig(abl_pressure)

# Registry contender scoreboard (scripts/check.sh `registry` gate).
pcc_fig(contenders)

# Differential fuzzing driver (not a figure; same plain-binary shape).
pcc_fig(fuzz_diff)

# Sampled-simulation accuracy gate (scripts/check.sh `sampling`).
pcc_fig(sample_check)

# Microbenchmarks: google-benchmark.
function(pcc_micro name)
    add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
    target_link_libraries(${name} PRIVATE pccsim benchmark::benchmark
                          benchmark::benchmark_main)
    set_target_properties(${name} PROPERTIES
        RUNTIME_OUTPUT_DIRECTORY ${PCC_BENCH_DIR})
endfunction()

pcc_micro(micro_pcc)
pcc_micro(micro_tlb)
pcc_micro(micro_buddy)
pcc_micro(micro_walker)
pcc_micro(micro_cache)
pcc_micro(micro_graph)
pcc_micro(micro_setup)
pcc_micro(micro_sweep)
